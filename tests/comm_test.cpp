// Tests for the MPI-like in-process communication runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "comm/communicator.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

Bytes bytes_of(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string str_of(const Bytes& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

TEST(Comm, PointToPointRing) {
  World world(4);
  world.run([](Comm& comm) {
    const std::size_t next = (comm.rank() + 1) % comm.size();
    const std::size_t prev = (comm.rank() + comm.size() - 1) % comm.size();
    const Bytes msg = bytes_of("from " + std::to_string(comm.rank()));
    comm.send(next, 7, msg);
    const Bytes got = comm.recv(prev, 7);
    EXPECT_EQ(str_of(got), "from " + std::to_string(prev));
  });
}

TEST(Comm, TagMatchingSeparatesStreams) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, bytes_of("tag1"));
      comm.send(1, 2, bytes_of("tag2"));
    } else {
      // Receive in reverse tag order: matching must pick by tag.
      EXPECT_EQ(str_of(comm.recv(0, 2)), "tag2");
      EXPECT_EQ(str_of(comm.recv(0, 1)), "tag1");
    }
  });
}

TEST(Comm, FifoOrderWithinTag) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(1, 5, bytes_of(std::to_string(i)));
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(str_of(comm.recv(0, 5)), std::to_string(i));
      }
    }
  });
}

TEST(Comm, SelfSendWorks) {
  World world(1);
  world.run([](Comm& comm) {
    comm.send(0, 3, bytes_of("loop"));
    EXPECT_EQ(str_of(comm.recv(0, 3)), "loop");
  });
}

TEST(Comm, TypedSendRecv) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> v = {1.5, -2.5, 3.75};
      comm.send_values<double>(1, 9, v);
    } else {
      std::vector<double> v(3);
      comm.recv_values<double>(0, 9, v);
      EXPECT_EQ(v, (std::vector<double>{1.5, -2.5, 3.75}));
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  World world(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  world.run([&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != 4) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(Comm, AllreduceMax) {
  World world(5);
  world.run([](Comm& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce_max(mine), 5.0);
    // Back-to-back collectives must not interfere.
    EXPECT_DOUBLE_EQ(comm.allreduce_max(-mine), -1.0);
  });
}

TEST(Comm, GatherCollectsAtRoot) {
  World world(3);
  world.run([](Comm& comm) {
    const Bytes mine = bytes_of(std::string(comm.rank() + 1, 'x'));
    const auto all = comm.gather(mine, 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 3u);
      for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(all[r].size(), r + 1);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Comm, RankExceptionPropagates) {
  World world(3);
  EXPECT_THROW(world.run([](Comm& comm) {
    comm.barrier();  // everyone reaches the barrier...
    if (comm.rank() == 1) throw CorruptDataError("rank 1 died");
  }),
               CorruptDataError);
}

TEST(Comm, UndeliveredMessagesDetected) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 1, Bytes(4));
    // rank 1 never receives it
  }),
               Error);
}

TEST(Comm, InvalidRanksRejected) {
  World world(2);
  world.run([](Comm& comm) {
    EXPECT_THROW(comm.send(5, 0, Bytes{}), InvalidArgumentError);
    EXPECT_THROW((void)comm.recv(5, 0), InvalidArgumentError);
    EXPECT_THROW((void)comm.gather(Bytes{}, 9), InvalidArgumentError);
  });
  EXPECT_THROW(World{0}, InvalidArgumentError);
}

TEST(Comm, ReusableAcrossRuns) {
  World world(2);
  for (int round = 0; round < 3; ++round) {
    world.run([round](Comm& comm) {
      const double max = comm.allreduce_max(static_cast<double>(round + comm.rank()));
      EXPECT_DOUBLE_EQ(max, round + 1.0);
    });
  }
}

}  // namespace
}  // namespace wck
