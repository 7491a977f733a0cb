#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <thread>

namespace wck {

World::World(std::size_t ranks) : ranks_(ranks), mailboxes_(ranks) {
  if (ranks == 0) throw InvalidArgumentError("World needs at least one rank");
  // No rank threads exist yet, but the slots are guarded fields; taking
  // the (uncontended) lock keeps the discipline uniform.
  MutexLock lk(coll_.mu);
  coll_.reduce_slots.resize(ranks, 0.0);
  coll_.gather_slots.resize(ranks, nullptr);
}

void World::run(const std::function<void(Comm&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(ranks_);
  Mutex error_mu;
  std::exception_ptr first_error;

  for (std::size_t r = 0; r < ranks_; ++r) {
    threads.emplace_back([this, r, &fn, &error_mu, &first_error] {
      Comm comm(*this, r);
      try {
        fn(comm);
      } catch (...) {
        MutexLock lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);

  for (auto& mb : mailboxes_) {
    MutexLock lk(mb.mu);
    if (!mb.messages.empty()) {
      throw Error("World::run finished with undelivered messages");
    }
  }
}

void Comm::send(std::size_t dest, int tag, std::span<const std::byte> data) {
  if (dest >= size()) throw InvalidArgumentError("send: destination rank out of range");
  World::Mailbox& mb = world_.mailboxes_[dest];
  {
    MutexLock lk(mb.mu);
    mb.messages.push_back(World::Message{rank_, tag, Bytes(data.begin(), data.end())});
  }
  mb.cv.notify_all();
}

Bytes Comm::recv(std::size_t src, int tag) {
  if (src >= size()) throw InvalidArgumentError("recv: source rank out of range");
  World::Mailbox& mb = world_.mailboxes_[rank_];
  MutexLock lk(mb.mu);
  for (;;) {
    const auto it = std::find_if(mb.messages.begin(), mb.messages.end(),
                                 [&](const World::Message& m) {
                                   return m.src == src && m.tag == tag;
                                 });
    if (it != mb.messages.end()) {
      Bytes data = std::move(it->data);
      mb.messages.erase(it);
      return data;
    }
    mb.cv.wait(lk);
  }
}

void Comm::barrier() {
  World::Collectives& c = world_.coll_;
  MutexLock lk(c.mu);
  const std::uint64_t gen = c.barrier_generation;
  if (++c.barrier_waiting == size()) {
    c.barrier_waiting = 0;
    ++c.barrier_generation;
    c.cv.notify_all();
  } else {
    c.cv.wait(lk, [&] {
      c.mu.assert_held();
      return c.barrier_generation != gen;
    });
  }
}

double Comm::allreduce_max(double value) {
  World::Collectives& c = world_.coll_;
  {
    MutexLock lk(c.mu);
    c.reduce_slots[rank_] = value;
  }
  barrier();
  double result = -std::numeric_limits<double>::infinity();
  {
    MutexLock lk(c.mu);
    // Fold in rank order: deterministic regardless of scheduling.
    for (const double v : c.reduce_slots) result = std::max(result, v);
  }
  barrier();  // keep slots alive until everyone has read them
  return result;
}

std::vector<Bytes> Comm::gather(std::span<const std::byte> data, std::size_t root) {
  if (root >= size()) throw InvalidArgumentError("gather: root out of range");
  World::Collectives& c = world_.coll_;
  const Bytes mine(data.begin(), data.end());
  {
    MutexLock lk(c.mu);
    c.gather_slots[rank_] = &mine;
  }
  barrier();
  std::vector<Bytes> out;
  if (rank_ == root) {
    MutexLock lk(c.mu);
    out.reserve(size());
    for (const Bytes* slot : c.gather_slots) out.push_back(*slot);
  }
  barrier();  // `mine` stays alive until the root has copied everything
  return out;
}

}  // namespace wck
