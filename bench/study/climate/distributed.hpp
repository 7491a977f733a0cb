// Domain-decomposed MiniClimate over the MPI-like comm substrate.
//
// The meridional (y) axis is split evenly among ranks; each rank owns a
// slab of every prognostic field with one halo row on each side,
// exchanged with its periodic neighbours every stage. The spectral
// Poisson solve is global, implemented gather-solve-distribute through
// rank 0 (the standard small-scale approach). The distributed
// trajectory is bit-identical to the serial MiniClimate (verified in
// tests), so per-rank checkpointing experiments compose with every
// serial result in this repository.
//
// Checkpoint/restart is per rank, exactly the paper's deployment model:
// each rank compresses and writes its own slab ("embarrassingly
// parallel", Sec. IV-D) and restores it on restart.
#pragma once

#include <filesystem>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "climate/mini_climate.hpp"
#include "comm/communicator.hpp"

namespace wck {

class DistributedClimate {
 public:
  /// config.ny must be divisible by comm.size(); every rank passes the
  /// same config. Initialization reproduces the serial model exactly.
  DistributedClimate(const ClimateConfig& config, Comm& comm);

  [[nodiscard]] const ClimateConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t step_count() const noexcept { return step_; }
  [[nodiscard]] std::size_t local_rows() const noexcept { return local_ny_; }
  [[nodiscard]] std::size_t first_row() const noexcept { return j0_; }

  /// Advances one step (collective: every rank must call).
  void step();
  void run(std::uint64_t n);

  /// Owned slab (shape {nz, local_rows, nx}, no halos) of each
  /// prognostic field.
  [[nodiscard]] NdArray<double> local_vorticity() const;
  [[nodiscard]] NdArray<double> local_temperature() const;

  /// Gathers a full field at `root` (collective). Non-roots receive an
  /// empty array.
  [[nodiscard]] NdArray<double> gather_vorticity(std::size_t root = 0);
  [[nodiscard]] NdArray<double> gather_temperature(std::size_t root = 0);

  /// Overwrites the local prognostic slabs (collective because the step
  /// counter must agree; halos refresh on the next step).
  void restore_local(const NdArray<double>& zeta_slab, const NdArray<double>& temp_slab,
                     std::uint64_t step);

  /// Writes this rank's slab through `codec` into
  /// dir/rank_<r>_step_<s>.wck. Returns the write info. A non-null `io`
  /// routes the file I/O through that backend — handing each rank its
  /// own FaultInjectingBackend gives per-rank fault injection. With a
  /// WaveletLossyCodec whose params set threads (or WCK_THREADS), each
  /// rank's deflate blocks spread over that many workers.
  CheckpointInfo write_local_checkpoint(const std::filesystem::path& dir,
                                        const Codec& codec, IoBackend* io = nullptr) const;

  /// Restores the slab written by write_local_checkpoint at `step`.
  void read_local_checkpoint(const std::filesystem::path& dir, std::uint64_t step,
                             IoBackend* io = nullptr);

 private:
  /// dzeta/dtemp for the given slab state (with valid halos).
  void tendencies(const NdArray<double>& zeta, const NdArray<double>& temp,
                  NdArray<double>& dzeta, NdArray<double>& dtemp);
  /// Refreshes halo rows of a slab field via neighbour exchange.
  void halo_exchange(NdArray<double>& slab, int tag_base);
  /// Global streamfunction solve; fills psi_ (with halos).
  void solve_psi(const NdArray<double>& zeta_slab);

  ClimateConfig config_;
  Comm& comm_;
  std::size_t local_ny_;
  std::size_t j0_;  ///< first owned global row
  std::uint64_t step_ = 0;
  PoissonSolver poisson_;  ///< used by rank 0 only

  // Slab fields, shape {nz, local_ny + 2, nx}: row 0 and row
  // local_ny+1 are halos.
  NdArray<double> zeta_;
  NdArray<double> temp_;
  NdArray<double> psi_;
  NdArray<double> forcing_;  // owned rows only ({nz, local_ny, nx})
  NdArray<double> t_eq_;     // owned rows only

  // RK3 scratch (same halo layout).
  NdArray<double> k_zeta_, k_temp_, s_zeta_, s_temp_;
};

}  // namespace wck
