// Seeded inputs. The program under test sees only these arrays; every
// one is a pure function of (seed, index), so the same seed gives the
// same inputs on every run and every commit.
#pragma once

#include <cstdint>

#include "ndarray/ndarray.hpp"

namespace pb {

/// The paper's per-process NICAM array shape (1.5 MB).
inline const wck::Shape kPaperShape{1156, 82, 2};

/// Field `kind` (0 pressure, 1 temperature, 2 velocity) of snapshot
/// `snapshot` at the paper's shape, from the same generators fig9 uses.
[[nodiscard]] wck::NdArray<double> paper_field(int kind, std::uint64_t seed,
                                               std::uint64_t snapshot = 0);

/// A 16x16 (2 KB) tile cut from a seeded smooth field: the input of the
/// per-call deflate probe.
[[nodiscard]] wck::NdArray<double> small_tile(std::uint64_t seed);

}  // namespace pb
