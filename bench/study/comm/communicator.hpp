// An MPI-like message-passing runtime over in-process ranks.
//
// The paper's setting is an MPI application whose ranks each checkpoint
// their local state ("compression of checkpoints of each process can be
// done in an embarrassingly parallel fashion", Sec. IV-D). We have no
// cluster, so this substrate provides the same programming model inside
// one process: a World spawns R ranks as threads; each receives a Comm
// handle with point-to-point send/recv (tag matching), barrier, gather
// and a max-allreduce — enough to write the distributed MiniClimate
// (climate/distributed.hpp) and coordinated per-rank checkpointing
// exactly as an MPI code would.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace wck {

class Comm;

/// Shared state of a group of ranks. Construct, then call run() with the
/// per-rank main function.
class World {
 public:
  explicit World(std::size_t ranks);

  [[nodiscard]] std::size_t size() const noexcept { return ranks_; }

  /// Executes fn(comm) on every rank concurrently (one thread per rank)
  /// and joins. The first rank exception is rethrown after all threads
  /// finish. May be called repeatedly; mailboxes must be drained by the
  /// ranks themselves (a completed run() asserts empty mailboxes).
  void run(const std::function<void(Comm&)>& fn);

 private:
  friend class Comm;

  struct Message {
    std::size_t src;
    int tag;
    Bytes data;
  };

  struct Mailbox {
    Mutex mu;
    CondVar cv;
    std::deque<Message> messages WCK_GUARDED_BY(mu);
  };

  // Collectives state.
  struct Collectives {
    Mutex mu;
    CondVar cv;
    std::uint64_t barrier_generation WCK_GUARDED_BY(mu) = 0;
    std::size_t barrier_waiting WCK_GUARDED_BY(mu) = 0;
    std::vector<double> reduce_slots WCK_GUARDED_BY(mu);
    std::vector<const Bytes*> gather_slots WCK_GUARDED_BY(mu);
  };

  std::size_t ranks_;
  std::vector<Mailbox> mailboxes_;
  Collectives coll_;
};

/// Per-rank communicator handle (valid only inside World::run).
class Comm {
 public:
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }
  [[nodiscard]] std::size_t size() const noexcept { return world_.ranks_; }

  // --- point-to-point ---

  /// Sends bytes to `dest` with `tag` (asynchronous, buffered).
  void send(std::size_t dest, int tag, std::span<const std::byte> data);

  /// Receives the oldest message from `src` with `tag` (blocking).
  [[nodiscard]] Bytes recv(std::size_t src, int tag);

  /// Typed convenience: sends/receives a span of trivially copyable T.
  template <typename T>
  void send_values(std::size_t dest, int tag, std::span<const T> values) {
    send(dest, tag, std::as_bytes(values));
  }
  template <typename T>
  void recv_values(std::size_t src, int tag, std::span<T> out) {
    const Bytes data = recv(src, tag);
    if (data.size() != out.size_bytes()) {
      throw InvalidArgumentError("recv_values: size mismatch");
    }
    std::memcpy(out.data(), data.data(), data.size());
  }

  // --- collectives (must be called by every rank) ---

  void barrier();

  /// Max of one double across all ranks; every rank gets the result.
  [[nodiscard]] double allreduce_max(double value);

  /// Gathers every rank's buffer at `root`; non-roots get an empty
  /// vector. Buffers may differ in size.
  [[nodiscard]] std::vector<Bytes> gather(std::span<const std::byte> data, std::size_t root);

 private:
  friend class World;
  Comm(World& world, std::size_t rank) : world_(world), rank_(rank) {}

  World& world_;
  std::size_t rank_;
};

}  // namespace wck
