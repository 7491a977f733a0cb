#include "climate/distributed.hpp"

#include <cstring>

#include "ckpt/checkpoint.hpp"
#include "io/io_backend.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace wck {
namespace {

constexpr double kDx = 1.0;
constexpr double kDy = 1.0;

// Message tag bases (each field/purpose gets a distinct tag space).
constexpr int kTagZetaHalo = 100;
constexpr int kTagTempHalo = 200;
constexpr int kTagPsiRows = 300;

}  // namespace

DistributedClimate::DistributedClimate(const ClimateConfig& config, Comm& comm)
    : config_(config),
      comm_(comm),
      local_ny_(config.ny / comm.size()),
      j0_(comm.rank() * (config.ny / comm.size())),
      poisson_(config.ny, config.nx, kDy, kDx),
      zeta_(Shape{config.nz, local_ny_ + 2, config.nx}),
      temp_(Shape{config.nz, local_ny_ + 2, config.nx}),
      psi_(Shape{config.nz, local_ny_ + 2, config.nx}),
      forcing_(Shape{config.nz, local_ny_, config.nx}),
      t_eq_(Shape{config.nz, local_ny_, config.nx}),
      k_zeta_(Shape{config.nz, local_ny_ + 2, config.nx}),
      k_temp_(Shape{config.nz, local_ny_ + 2, config.nx}),
      s_zeta_(Shape{config.nz, local_ny_ + 2, config.nx}),
      s_temp_(Shape{config.nz, local_ny_ + 2, config.nx}) {
  if (config.ny % comm.size() != 0) {
    throw InvalidArgumentError("DistributedClimate: ny must be divisible by rank count");
  }
  if (local_ny_ < 1) {
    throw InvalidArgumentError("DistributedClimate: every rank needs at least one row");
  }

  // Reproduce the serial initialization exactly, then keep the slab.
  const MiniClimate serial(config);
  const std::size_t nx = config.nx;
  const std::size_t nz = config.nz;
  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 0; j < local_ny_; ++j) {
      for (std::size_t i = 0; i < nx; ++i) {
        zeta_(k, j + 1, i) = serial.vorticity()(k, j0_ + j, i);
        temp_(k, j + 1, i) = serial.temperature()(k, j0_ + j, i);
        forcing_(k, j, i) = serial.forcing_pattern()(k, j0_ + j, i);
        t_eq_(k, j, i) = serial.equilibrium_temperature()(k, j0_ + j, i);
      }
    }
  }
}

void DistributedClimate::halo_exchange(NdArray<double>& slab, int tag_base) {
  const std::size_t nx = config_.nx;
  const std::size_t nz = config_.nz;
  const std::size_t prev = (comm_.rank() + comm_.size() - 1) % comm_.size();
  const std::size_t next = (comm_.rank() + 1) % comm_.size();

  // Pack one global row (all levels) into a contiguous buffer.
  auto pack_row = [&](std::size_t slab_row) {
    std::vector<double> buf(nz * nx);
    for (std::size_t k = 0; k < nz; ++k) {
      std::memcpy(buf.data() + k * nx, &slab(k, slab_row, 0), nx * sizeof(double));
    }
    return buf;
  };
  auto unpack_row = [&](std::size_t slab_row, std::span<const double> buf) {
    for (std::size_t k = 0; k < nz; ++k) {
      std::memcpy(&slab(k, slab_row, 0), buf.data() + k * nx, nx * sizeof(double));
    }
  };

  const auto top = pack_row(1);
  const auto bottom = pack_row(local_ny_);
  comm_.send_values<double>(prev, tag_base + 0, top);     // my top -> prev's bottom halo
  comm_.send_values<double>(next, tag_base + 1, bottom);  // my bottom -> next's top halo

  std::vector<double> buf(nz * nx);
  comm_.recv_values<double>(next, tag_base + 0, buf);
  unpack_row(local_ny_ + 1, buf);
  comm_.recv_values<double>(prev, tag_base + 1, buf);
  unpack_row(0, buf);
}

void DistributedClimate::solve_psi(const NdArray<double>& zeta_slab) {
  const std::size_t nx = config_.nx;
  const std::size_t ny = config_.ny;
  const std::size_t nz = config_.nz;

  // Pack owned rows, gather to root.
  std::vector<double> owned(nz * local_ny_ * nx);
  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 0; j < local_ny_; ++j) {
      std::memcpy(owned.data() + (k * local_ny_ + j) * nx, &zeta_slab(k, j + 1, 0),
                  nx * sizeof(double));
    }
  }
  const auto slabs = comm_.gather(std::as_bytes(std::span<const double>(owned)), 0);

  if (comm_.rank() == 0) {
    // Assemble the full field, solve level by level, send each rank its
    // rows including halos.
    std::vector<double> full_zeta(nz * ny * nx);
    for (std::size_t r = 0; r < comm_.size(); ++r) {
      const auto* src = reinterpret_cast<const double*>(slabs[r].data());
      const std::size_t rows0 = r * local_ny_;
      for (std::size_t k = 0; k < nz; ++k) {
        for (std::size_t j = 0; j < local_ny_; ++j) {
          std::memcpy(full_zeta.data() + (k * ny + rows0 + j) * nx,
                      src + (k * local_ny_ + j) * nx, nx * sizeof(double));
        }
      }
    }
    std::vector<double> full_psi(nz * ny * nx);
    for (std::size_t k = 0; k < nz; ++k) {
      poisson_.solve(std::span(full_zeta.data() + k * ny * nx, ny * nx),
                     std::span(full_psi.data() + k * ny * nx, ny * nx));
    }
    // Distribute rows j0-1 .. j0+local_ny (periodic) per rank.
    for (std::size_t r = 0; r < comm_.size(); ++r) {
      std::vector<double> out(nz * (local_ny_ + 2) * nx);
      const std::size_t rows0 = r * local_ny_;
      for (std::size_t k = 0; k < nz; ++k) {
        for (std::size_t j = 0; j < local_ny_ + 2; ++j) {
          const std::size_t gj = (rows0 + j + ny - 1) % ny;
          std::memcpy(out.data() + (k * (local_ny_ + 2) + j) * nx,
                      full_psi.data() + (k * ny + gj) * nx, nx * sizeof(double));
        }
      }
      comm_.send_values<double>(r, kTagPsiRows, std::span<const double>(out));
    }
  }

  std::vector<double> mine(nz * (local_ny_ + 2) * nx);
  comm_.recv_values<double>(0, kTagPsiRows, mine);
  std::memcpy(psi_.data(), mine.data(), mine.size() * sizeof(double));
}

void DistributedClimate::tendencies(const NdArray<double>& zeta, const NdArray<double>& temp,
                                    NdArray<double>& dzeta, NdArray<double>& dtemp) {
  const std::size_t nx = config_.nx;
  const std::size_t nz = config_.nz;
  const double inv4 = 1.0 / (4.0 * kDx * kDy);

  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 1; j <= local_ny_; ++j) {
      const std::size_t jp = j + 1;  // halo layout: neighbours always exist
      const std::size_t jm = j - 1;
      for (std::size_t i = 0; i < nx; ++i) {
        const std::size_t ip = (i + 1) % nx;
        const std::size_t im = (i + nx - 1) % nx;
        const auto z = [&](std::size_t jj, std::size_t ii) { return zeta(k, jj, ii); };
        const auto ps = [&](std::size_t jj, std::size_t ii) { return psi_(k, jj, ii); };
        const auto tt = [&](std::size_t jj, std::size_t ii) { return temp(k, jj, ii); };

        // Same Arakawa Jacobian arithmetic as the serial model.
        const double j1 = (ps(j, ip) - ps(j, im)) * (z(jp, i) - z(jm, i)) -
                          (ps(jp, i) - ps(jm, i)) * (z(j, ip) - z(j, im));
        const double j2 = ps(j, ip) * (z(jp, ip) - z(jm, ip)) -
                          ps(j, im) * (z(jp, im) - z(jm, im)) -
                          ps(jp, i) * (z(jp, ip) - z(jp, im)) +
                          ps(jm, i) * (z(jm, ip) - z(jm, im));
        const double j3 = ps(jp, ip) * (z(jp, i) - z(j, ip)) -
                          ps(jm, im) * (z(j, im) - z(jm, i)) -
                          ps(jp, im) * (z(jp, i) - z(j, im)) +
                          ps(jm, ip) * (z(j, ip) - z(jm, i));
        const double jac = (j1 + j2 + j3) * inv4 / 3.0;

        const double lap_z = (z(j, ip) + z(j, im) - 2.0 * z(j, i)) / (kDx * kDx) +
                             (z(jp, i) + z(jm, i) - 2.0 * z(j, i)) / (kDy * kDy);

        double coupling = 0.0;
        if (nz > 1) {
          const double z_up = k + 1 < nz ? zeta(k + 1, j, i) : z(j, i);
          const double z_dn = k > 0 ? zeta(k - 1, j, i) : z(j, i);
          coupling = config_.vertical_coupling * (z_up + z_dn - 2.0 * z(j, i));
        }

        dzeta(k, j, i) = -jac + config_.viscosity * lap_z - config_.drag * z(j, i) +
                         forcing_(k, j - 1, i) + coupling;

        const double uu = -(ps(jp, i) - ps(jm, i)) / (2.0 * kDy);
        const double vv = (ps(j, ip) - ps(j, im)) / (2.0 * kDx);
        const double tx = (tt(j, ip) - tt(j, im)) / (2.0 * kDx);
        const double ty = (tt(jp, i) - tt(jm, i)) / (2.0 * kDy);
        const double lap_t = (tt(j, ip) + tt(j, im) - 2.0 * tt(j, i)) / (kDx * kDx) +
                             (tt(jp, i) + tt(jm, i) - 2.0 * tt(j, i)) / (kDy * kDy);
        dtemp(k, j, i) = -(uu * tx + vv * ty) + config_.thermal_diffusivity * lap_t +
                         config_.thermal_relaxation * (t_eq_(k, j - 1, i) - tt(j, i));
      }
    }
  }
}

void DistributedClimate::step() {
  const double dt = config_.dt;
  const std::size_t nx = config_.nx;
  const std::size_t nz = config_.nz;

  auto eval = [&](NdArray<double>& zeta, NdArray<double>& temp, NdArray<double>& dz,
                  NdArray<double>& dtp) {
    halo_exchange(zeta, kTagZetaHalo);
    halo_exchange(temp, kTagTempHalo);
    solve_psi(zeta);
    tendencies(zeta, temp, dz, dtp);
  };
  auto combine = [&](auto&& fn) {
    for (std::size_t k = 0; k < nz; ++k) {
      for (std::size_t j = 1; j <= local_ny_; ++j) {
        for (std::size_t i = 0; i < nx; ++i) fn(k, j, i);
      }
    }
  };

  eval(zeta_, temp_, k_zeta_, k_temp_);
  combine([&](std::size_t k, std::size_t j, std::size_t i) {
    s_zeta_(k, j, i) = zeta_(k, j, i) + dt * k_zeta_(k, j, i);
    s_temp_(k, j, i) = temp_(k, j, i) + dt * k_temp_(k, j, i);
  });
  eval(s_zeta_, s_temp_, k_zeta_, k_temp_);
  combine([&](std::size_t k, std::size_t j, std::size_t i) {
    s_zeta_(k, j, i) = 0.75 * zeta_(k, j, i) + 0.25 * (s_zeta_(k, j, i) + dt * k_zeta_(k, j, i));
    s_temp_(k, j, i) = 0.75 * temp_(k, j, i) + 0.25 * (s_temp_(k, j, i) + dt * k_temp_(k, j, i));
  });
  eval(s_zeta_, s_temp_, k_zeta_, k_temp_);
  const double third = 1.0 / 3.0;
  combine([&](std::size_t k, std::size_t j, std::size_t i) {
    zeta_(k, j, i) =
        third * zeta_(k, j, i) + (2.0 * third) * (s_zeta_(k, j, i) + dt * k_zeta_(k, j, i));
    temp_(k, j, i) =
        third * temp_(k, j, i) + (2.0 * third) * (s_temp_(k, j, i) + dt * k_temp_(k, j, i));
  });
  ++step_;
}

void DistributedClimate::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
}

NdArray<double> DistributedClimate::local_vorticity() const {
  NdArray<double> out(Shape{config_.nz, local_ny_, config_.nx});
  for (std::size_t k = 0; k < config_.nz; ++k) {
    for (std::size_t j = 0; j < local_ny_; ++j) {
      for (std::size_t i = 0; i < config_.nx; ++i) out(k, j, i) = zeta_(k, j + 1, i);
    }
  }
  return out;
}

NdArray<double> DistributedClimate::local_temperature() const {
  NdArray<double> out(Shape{config_.nz, local_ny_, config_.nx});
  for (std::size_t k = 0; k < config_.nz; ++k) {
    for (std::size_t j = 0; j < local_ny_; ++j) {
      for (std::size_t i = 0; i < config_.nx; ++i) out(k, j, i) = temp_(k, j + 1, i);
    }
  }
  return out;
}

namespace {

NdArray<double> gather_field(Comm& comm, const NdArray<double>& slab, const ClimateConfig& cfg,
                             std::size_t local_ny, std::size_t root) {
  const auto gathered = comm.gather(std::as_bytes(slab.values()), root);
  if (comm.rank() != root) return {};
  NdArray<double> full(Shape{cfg.nz, cfg.ny, cfg.nx});
  for (std::size_t r = 0; r < comm.size(); ++r) {
    const auto* src = reinterpret_cast<const double*>(gathered[r].data());
    for (std::size_t k = 0; k < cfg.nz; ++k) {
      for (std::size_t j = 0; j < local_ny; ++j) {
        std::memcpy(&full(k, r * local_ny + j, 0), src + (k * local_ny + j) * cfg.nx,
                    cfg.nx * sizeof(double));
      }
    }
  }
  return full;
}

}  // namespace

NdArray<double> DistributedClimate::gather_vorticity(std::size_t root) {
  return gather_field(comm_, local_vorticity(), config_, local_ny_, root);
}

NdArray<double> DistributedClimate::gather_temperature(std::size_t root) {
  return gather_field(comm_, local_temperature(), config_, local_ny_, root);
}

void DistributedClimate::restore_local(const NdArray<double>& zeta_slab,
                                       const NdArray<double>& temp_slab, std::uint64_t step) {
  const Shape want{config_.nz, local_ny_, config_.nx};
  if (zeta_slab.shape() != want || temp_slab.shape() != want) {
    throw InvalidArgumentError("restore_local: slab shape mismatch");
  }
  for (std::size_t k = 0; k < config_.nz; ++k) {
    for (std::size_t j = 0; j < local_ny_; ++j) {
      for (std::size_t i = 0; i < config_.nx; ++i) {
        zeta_(k, j + 1, i) = zeta_slab(k, j, i);
        temp_(k, j + 1, i) = temp_slab(k, j, i);
      }
    }
  }
  step_ = step;
}

CheckpointInfo DistributedClimate::write_local_checkpoint(const std::filesystem::path& dir,
                                                          const Codec& codec,
                                                          IoBackend* io) const {
  WCK_TRACE_SPAN("dist.ckpt.write");
  const WallTimer ckpt_timer;
  NdArray<double> zeta = local_vorticity();
  NdArray<double> temp = local_temperature();
  CheckpointRegistry reg;
  reg.add("vorticity", &zeta);
  reg.add("temperature", &temp);
  const auto path = dir / ("rank_" + std::to_string(comm_.rank()) + "_step_" +
                           std::to_string(step_) + ".wck");
  CheckpointInfo info = io != nullptr ? write_checkpoint(path, reg, codec, step_, *io)
                                      : write_checkpoint(path, reg, codec, step_);
  WCK_EVENT(kCkptCommit, step_,
            "rank " + std::to_string(comm_.rank()) + " " + path.filename().string());
  // Per-rank checkpoint time: the aggregate histogram feeds Fig. 9-style
  // breakdowns, the per-rank gauge exposes stragglers.
  if (telemetry::enabled()) {
    const double seconds = ckpt_timer.seconds();
    auto& registry = telemetry::MetricsRegistry::global();
    registry.histogram("dist.ckpt.write.seconds").record(seconds);
    registry.gauge("dist.ckpt.rank." + std::to_string(comm_.rank()) + ".last_write_seconds")
        .set(seconds);
  }
  return info;
}

void DistributedClimate::read_local_checkpoint(const std::filesystem::path& dir,
                                               std::uint64_t step, IoBackend* io) {
  WCK_TRACE_SPAN("dist.ckpt.read");
  NdArray<double> zeta;
  NdArray<double> temp;
  CheckpointRegistry reg;
  reg.add("vorticity", &zeta);
  reg.add("temperature", &temp);
  const auto path = dir / ("rank_" + std::to_string(comm_.rank()) + "_step_" +
                           std::to_string(step) + ".wck");
  const CheckpointInfo info =
      io != nullptr ? read_checkpoint(path, reg, *io) : read_checkpoint(path, reg);
  restore_local(zeta, temp, info.step);
}

}  // namespace wck
