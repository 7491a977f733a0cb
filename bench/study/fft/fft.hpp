// Radix-2 FFT and a spectral Poisson solver on periodic grids.
//
// Substrate for the MiniClimate model (climate/): the barotropic
// vorticity dynamics need streamfunction = inverse-Laplacian(vorticity)
// every step, solved exactly in Fourier space with the eigenvalues of
// the second-order finite-difference Laplacian (so the solve is
// consistent with the model's FD derivatives).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace wck {

/// In-place iterative radix-2 complex FFT. `data.size()` must be a power
/// of two (throws InvalidArgumentError otherwise). `inverse` applies the
/// conjugate transform including the 1/N normalization, so
/// fft(ifft(x)) == x up to rounding.
void fft_inplace(std::span<std::complex<double>> data, bool inverse);

/// True iff n is a nonzero power of two.
[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// In-place 2D FFT of a row-major ny x nx complex field.
void fft2d_inplace(std::span<std::complex<double>> data, std::size_t ny, std::size_t nx,
                   bool inverse);

/// Solves the discrete periodic Poisson problem  L psi = rhs,  where L is
/// the standard 5-point finite-difference Laplacian on an ny x nx
/// periodic grid with spacings (dy, dx). The k=0 mode (mean) of the
/// solution is set to zero; the rhs mean is projected out (a periodic
/// Poisson problem is only solvable for zero-mean rhs).
class PoissonSolver {
 public:
  PoissonSolver(std::size_t ny, std::size_t nx, double dy, double dx);

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }

  /// rhs and out are row-major ny x nx; they may alias.
  void solve(std::span<const double> rhs, std::span<double> out) const;

 private:
  std::size_t ny_;
  std::size_t nx_;
  std::vector<double> inv_eig_;  ///< 1/lambda per mode, 0 for the mean mode
  mutable std::vector<std::complex<double>> work_;
};

}  // namespace wck
