// Fast Fourier transform for arbitrary length n.  Lengths of the form
// 2^a 3^b 5^c (every length the dycore uses: 16, 48, 360, the paper's
// 720) run a direct mixed-radix Stockham transform with radix-4, -2, -3
// and -5 stages; any other length runs Bluestein's chirp-z algorithm,
// whose circular convolution uses the same direct transform at the
// smallest 2^a 3^b 5^c length >= 2n - 1.  A Plan precomputes the stage
// list and every twiddle for a fixed n and is reused across latitude
// circles and time steps.  Inverses use the identity
// F^-1(x) = conj(F(conj(x))) / n, so one forward kernel serves both.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace ca::fft {

using cplx = std::complex<double>;

class Plan {
 public:
  explicit Plan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward transform (unnormalized).
  void forward(std::span<cplx> data) const;
  /// In-place inverse transform (normalized by 1/n).
  void inverse(std::span<cplx> data) const;

  /// Scratch elements one transform needs: the Stockham ping-pong buffer
  /// (n; zero for n = 1), or for Bluestein the padded convolution buffer
  /// plus its ping-pong buffer.  The scratch overloads below are
  /// allocation-free when given a caller-owned buffer of this size.
  std::size_t scratch_size() const;
  void forward(std::span<cplx> data, std::span<cplx> scratch) const;
  void inverse(std::span<cplx> data, std::span<cplx> scratch) const;

 private:
  /// One Stockham pass: `radix`-point butterflies over `m` twiddle groups
  /// of `stride` contiguous sub-transforms; its twiddles start at
  /// twiddles_[twiddle].
  struct Stage {
    std::size_t radix, m, stride, twiddle;
  };

  /// Forward transform of length len_ from `data` back into `data`;
  /// `work` holds len_ elements.
  void stockham(cplx* data, cplx* work) const;

  std::size_t n_ = 0;
  std::size_t len_ = 0;  // direct-transform length: n_, or Bluestein's m
  std::vector<Stage> stages_;
  std::vector<cplx> twiddles_;

  // Bluestein chirp data (empty when n_ is 2^a 3^b 5^c).
  std::vector<cplx> chirp_;      // exp(-i*pi*k^2/n)
  std::vector<cplx> b_forward_;  // FFT_len of the chirp kernel, / len_
};

/// Convenience one-shot transforms (allocate a Plan internally).
void fft(std::span<cplx> data, bool inverse = false);

/// Real-input transform via the N/2 complex-FFT trick (even n only):
/// packs adjacent real pairs into complex values, transforms, and
/// unpacks with the split formula, whose twiddles W_n^k are precomputed.
/// spectrum has n/2+1 bins (DC..Nyquist).
class RealPlan {
 public:
  explicit RealPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// spectrum[k] for k in [0, n/2]; bins 1..n/2-1 represent conjugate
  /// pairs.
  void forward(std::span<const double> input, std::span<cplx> spectrum) const;
  /// Inverse of forward (exactly; output scaled by 1/n internally).
  void inverse(std::span<const cplx> spectrum,
               std::span<double> output) const;

  /// Scratch elements one real transform needs (pair-packing buffer plus
  /// the half-length plan's own scratch).
  std::size_t scratch_size() const { return n_ / 2 + half_.scratch_size(); }
  /// Allocation-free variants: scratch must hold scratch_size() elements.
  void forward(std::span<const double> input, std::span<cplx> spectrum,
               std::span<cplx> scratch) const;
  void inverse(std::span<const cplx> spectrum, std::span<double> output,
               std::span<cplx> scratch) const;

 private:
  std::size_t n_ = 0;
  Plan half_;
  std::vector<cplx> split_;  // W_n^k = exp(-2*pi*i*k/n), k in [0, n/2]
};

}  // namespace ca::fft
