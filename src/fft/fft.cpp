#include "fft/fft.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/math.hpp"

namespace ca::fft {
namespace {

/// True if n = 2^a 3^b 5^c, the lengths the direct transform handles.
bool is_smooth(std::size_t n) {
  for (const std::size_t p : {2, 3, 5})
    while (n % p == 0) n /= p;
  return n == 1;
}

cplx unit_root(std::size_t k, std::size_t n) {
  const double angle =
      -2.0 * util::kPi * static_cast<double>(k) / static_cast<double>(n);
  return {std::cos(angle), std::sin(angle)};
}

// In-place forward DFT of P points held as separate real and imaginary
// parts.  The radices are compile-time constants, so the arrays stay in
// registers and every element is read and written as a plain double.
template <std::size_t P>
void butterfly(double* re, double* im) {
  if constexpr (P == 2) {
    const double r0 = re[0], i0 = im[0];
    re[0] = r0 + re[1];
    im[0] = i0 + im[1];
    re[1] = r0 - re[1];
    im[1] = i0 - im[1];
  } else if constexpr (P == 3) {
    constexpr double kS3 = 0.86602540378443864676;  // sin(2 pi / 3)
    const double sr = re[1] + re[2], si = im[1] + im[2];
    const double dr = re[1] - re[2], di = im[1] - im[2];
    const double mr = re[0] - 0.5 * sr, mi = im[0] - 0.5 * si;
    re[0] += sr;
    im[0] += si;
    // b1,2 = m -+ i sin(2 pi/3) d
    re[1] = mr + kS3 * di;
    im[1] = mi - kS3 * dr;
    re[2] = mr - kS3 * di;
    im[2] = mi + kS3 * dr;
  } else if constexpr (P == 4) {
    const double t0r = re[0] + re[2], t0i = im[0] + im[2];
    const double t1r = re[0] - re[2], t1i = im[0] - im[2];
    const double t2r = re[1] + re[3], t2i = im[1] + im[3];
    // t3 = -i (a1 - a3)
    const double t3r = im[1] - im[3], t3i = re[3] - re[1];
    re[0] = t0r + t2r;
    im[0] = t0i + t2i;
    re[1] = t1r + t3r;
    im[1] = t1i + t3i;
    re[2] = t0r - t2r;
    im[2] = t0i - t2i;
    re[3] = t1r - t3r;
    im[3] = t1i - t3i;
  } else {
    static_assert(P == 5);
    constexpr double kC1 = 0.30901699437494742410;   // cos(2 pi / 5)
    constexpr double kC2 = -0.80901699437494742410;  // cos(4 pi / 5)
    constexpr double kS1 = 0.95105651629515357212;   // sin(2 pi / 5)
    constexpr double kS2 = 0.58778525229247312917;   // sin(4 pi / 5)
    const double s14r = re[1] + re[4], s14i = im[1] + im[4];
    const double d14r = re[1] - re[4], d14i = im[1] - im[4];
    const double s23r = re[2] + re[3], s23i = im[2] + im[3];
    const double d23r = re[2] - re[3], d23i = im[2] - im[3];
    const double m1r = re[0] + kC1 * s14r + kC2 * s23r;
    const double m1i = im[0] + kC1 * s14i + kC2 * s23i;
    const double m2r = re[0] + kC2 * s14r + kC1 * s23r;
    const double m2i = im[0] + kC2 * s14i + kC1 * s23i;
    // b1,4 = m1 -+ i (s1 d14 + s2 d23); b2,3 = m2 -+ i (s2 d14 - s1 d23)
    const double n1r = kS1 * d14r + kS2 * d23r;
    const double n1i = kS1 * d14i + kS2 * d23i;
    const double n2r = kS2 * d14r - kS1 * d23r;
    const double n2i = kS2 * d14i - kS1 * d23i;
    re[0] += s14r + s23r;
    im[0] += s14i + s23i;
    re[1] = m1r + n1i;
    im[1] = m1i - n1r;
    re[4] = m1r - n1i;
    im[4] = m1i + n1r;
    re[2] = m2r + n2i;
    im[2] = m2i - n2r;
    re[3] = m2r - n2i;
    im[3] = m2i + n2r;
  }
}

// One Stockham pass over interleaved (re, im) doubles: for twiddle group
// j < m and sub-transform q < s, the P complex inputs x[q + s (j + r m)]
// become y[q + s (P j + k)] = DFT_P(inputs)_k * w_k, with w_k =
// W_{P m}^{j k} read from the group's P-1 precomputed twiddles.  Offsets
// below count doubles, hence the factors of 2.
template <std::size_t P>
void pass(std::size_t m, std::size_t s, const double* w, const double* x,
          double* y) {
  const std::size_t in_step = 2 * s * m;
  const std::size_t out_step = 2 * s;
  for (std::size_t j = 0; j < m; ++j, w += 2 * (P - 1)) {
    const double* xj = x + 2 * s * j;
    double* yj = y + 2 * s * P * j;
    for (std::size_t q = 0; q < 2 * s; q += 2) {
      double re[P], im[P];
      for (std::size_t r = 0; r < P; ++r) {
        re[r] = xj[q + r * in_step];
        im[r] = xj[q + r * in_step + 1];
      }
      butterfly<P>(re, im);
      yj[q] = re[0];
      yj[q + 1] = im[0];
      for (std::size_t k = 1; k < P; ++k) {
        const double wr = w[2 * (k - 1)], wi = w[2 * (k - 1) + 1];
        yj[q + k * out_step] = re[k] * wr - im[k] * wi;
        yj[q + k * out_step + 1] = re[k] * wi + im[k] * wr;
      }
    }
  }
}

}  // namespace

Plan::Plan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("fft::Plan: n must be positive");
  const bool direct = is_smooth(n);
  len_ = n;
  if (!direct) {
    len_ = 2 * n - 1;
    while (!is_smooth(len_)) ++len_;
  }

  // Stages: radix 4 while it divides, then at most one radix 2, then the
  // 3s and 5s.  Stage twiddles W_rest^{j k} for j < m, 1 <= k < radix.
  std::size_t rest = len_, stride = 1;
  while (rest > 1) {
    const std::size_t radix = rest % 4 == 0   ? 4
                              : rest % 2 == 0 ? 2
                              : rest % 3 == 0 ? 3
                                              : 5;
    const std::size_t m = rest / radix;
    stages_.push_back({radix, m, stride, twiddles_.size()});
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t k = 1; k < radix; ++k)
        twiddles_.push_back(unit_root(j * k % rest, rest));
    rest = m;
    stride *= radix;
  }

  if (!direct) {
    // Bluestein: x_k * chirp_k convolved with conj(chirp) kernel.
    // chirp_k = W_2n^(k^2); k^2 mod 2n keeps the angle argument small.
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k)
      chirp_[k] = unit_root(k * k % (2 * n_), 2 * n_);
    std::vector<cplx> b(len_, cplx{0.0, 0.0}), work(len_);
    b[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
      b[k] = std::conj(chirp_[k]);
      b[len_ - k] = std::conj(chirp_[k]);
    }
    stockham(b.data(), work.data());
    // Fold the convolution's inverse-transform 1/len into the kernel.
    const double scale = 1.0 / static_cast<double>(len_);
    for (auto& v : b) v *= scale;
    b_forward_ = std::move(b);
  }
}

std::size_t Plan::scratch_size() const {
  if (!chirp_.empty()) return 2 * len_;
  return stages_.empty() ? 0 : len_;
}

void Plan::stockham(cplx* data, cplx* work) const {
  // std::complex<double> is layout-compatible with double[2].
  double* x = reinterpret_cast<double*>(data);
  double* y = reinterpret_cast<double*>(work);
  for (const Stage& st : stages_) {
    const double* w =
        reinterpret_cast<const double*>(twiddles_.data() + st.twiddle);
    switch (st.radix) {
      case 2:
        pass<2>(st.m, st.stride, w, x, y);
        break;
      case 3:
        pass<3>(st.m, st.stride, w, x, y);
        break;
      case 4:
        pass<4>(st.m, st.stride, w, x, y);
        break;
      default:
        pass<5>(st.m, st.stride, w, x, y);
        break;
    }
    std::swap(x, y);
  }
  if (x != reinterpret_cast<double*>(data))
    std::copy(x, x + 2 * len_, reinterpret_cast<double*>(data));
}

void Plan::forward(std::span<cplx> data, std::span<cplx> scratch) const {
  assert(data.size() == n_);
  assert(scratch.size() >= scratch_size());
  if (chirp_.empty()) {
    stockham(data.data(), scratch.data());
    return;
  }
  // Bluestein: the circular convolution's inverse transform runs as
  // conj(F(conj(.))), with its 1/len already in b_forward_.
  cplx* a = scratch.data();
  cplx* work = a + len_;
  for (std::size_t k = 0; k < n_; ++k) a[k] = data[k] * chirp_[k];
  std::fill(a + n_, a + len_, cplx{0.0, 0.0});
  stockham(a, work);
  for (std::size_t k = 0; k < len_; ++k)
    a[k] = std::conj(a[k] * b_forward_[k]);
  stockham(a, work);
  for (std::size_t k = 0; k < n_; ++k) data[k] = std::conj(a[k]) * chirp_[k];
}

void Plan::forward(std::span<cplx> data) const {
  std::vector<cplx> scratch(scratch_size());
  forward(data, scratch);
}

void Plan::inverse(std::span<cplx> data) const {
  std::vector<cplx> scratch(scratch_size());
  inverse(data, scratch);
}

void Plan::inverse(std::span<cplx> data, std::span<cplx> scratch) const {
  for (auto& v : data) v = std::conj(v);
  forward(data, scratch);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& v : data) v = std::conj(v) * scale;
}

RealPlan::RealPlan(std::size_t n) : n_(n), half_(n / 2) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("fft::RealPlan: n must be even and >= 2");
  split_.resize(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) split_[k] = unit_root(k, n);
}

void RealPlan::forward(std::span<const double> input,
                       std::span<cplx> spectrum) const {
  std::vector<cplx> scratch(scratch_size());
  forward(input, spectrum, scratch);
}

void RealPlan::forward(std::span<const double> input,
                       std::span<cplx> spectrum,
                       std::span<cplx> scratch) const {
  assert(input.size() == n_);
  assert(spectrum.size() == n_ / 2 + 1);
  assert(scratch.size() == scratch_size());
  const std::size_t h = n_ / 2;
  std::span<cplx> z = scratch.first(h);
  for (std::size_t m = 0; m < h; ++m)
    z[m] = cplx{input[2 * m], input[2 * m + 1]};
  half_.forward(z, scratch.subspan(h));
  // Split: X[k] = E[k] + W^k O[k] with E = (Z[k] + conj Z[h-k]) / 2 and
  // O = -i (Z[k] - conj Z[h-k]) / 2; at k = 0 and h (W = 1, -1) both
  // reduce to the real and imaginary parts of Z[0].
  spectrum[0] = cplx{z[0].real() + z[0].imag(), 0.0};
  spectrum[h] = cplx{z[0].real() - z[0].imag(), 0.0};
  for (std::size_t k = 1; k < h; ++k) {
    const double ar = z[k].real(), ai = z[k].imag();
    const double br = z[h - k].real(), bi = z[h - k].imag();
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double orr = 0.5 * (ai + bi), oi = -0.5 * (ar - br);
    const double wr = split_[k].real(), wi = split_[k].imag();
    spectrum[k] = cplx{er + wr * orr - wi * oi, ei + wr * oi + wi * orr};
  }
}

void RealPlan::inverse(std::span<const cplx> spectrum,
                       std::span<double> output) const {
  std::vector<cplx> scratch(scratch_size());
  inverse(spectrum, output, scratch);
}

void RealPlan::inverse(std::span<const cplx> spectrum,
                       std::span<double> output,
                       std::span<cplx> scratch) const {
  assert(spectrum.size() == n_ / 2 + 1);
  assert(output.size() == n_);
  assert(scratch.size() == scratch_size());
  const std::size_t h = n_ / 2;
  std::span<cplx> z = scratch.first(h);
  // Z[k] = E[k] + i conj(W^k) O[k] with E = (X[k] + conj X[h-k]) / 2 and
  // O = (X[k] - conj X[h-k]) / 2.  The half-length inverse runs as
  // conj(F(conj Z)) / h, so z holds conj Z.
  for (std::size_t k = 0; k < h; ++k) {
    const double ar = spectrum[k].real(), ai = spectrum[k].imag();
    const double br = spectrum[h - k].real(), bi = spectrum[h - k].imag();
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double dr = 0.5 * (ar - br), di = 0.5 * (ai + bi);
    const double wr = split_[k].real(), wi = split_[k].imag();
    const double orr = wr * dr + wi * di, oi = wr * di - wi * dr;
    z[k] = cplx{er - oi, -(ei + orr)};
  }
  half_.forward(z, scratch.subspan(h));
  const double scale = 1.0 / static_cast<double>(h);
  for (std::size_t m = 0; m < h; ++m) {
    output[2 * m] = z[m].real() * scale;
    output[2 * m + 1] = -z[m].imag() * scale;
  }
}

void fft(std::span<cplx> data, bool inverse) {
  Plan plan(data.size());
  if (inverse) {
    plan.inverse(data);
  } else {
    plan.forward(data);
  }
}

}  // namespace ca::fft
