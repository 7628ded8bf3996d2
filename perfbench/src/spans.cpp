#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <string>

namespace perfbench {

double now_us() { return ca::obs::Tracer::now_us(); }

namespace {
double clock_us(clockid_t id) {
  timespec t{};
  clock_gettime(id, &t);
  return 1e6 * static_cast<double>(t.tv_sec) + 1e-3 * static_cast<double>(t.tv_nsec);
}
}  // namespace

double thread_cpu_us() { return clock_us(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_us() { return clock_us(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

/// 7-point sweeps over a cache-resident 34 x 26 x 10 block, as the
/// adaptation, advection and smoothing operators make.
double stencil_sweeps(int sweeps) {
  constexpr int nx = 34, ny = 26, nz = 10;
  constexpr int sx = 1, sy = nx, sz = nx * ny;
  std::vector<double> a(static_cast<std::size_t>(nx * ny * nz)), b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = b[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
  for (int s = 0; s < sweeps; ++s) {
    for (int k = 1; k + 1 < nz; ++k)
      for (int j = 1; j + 1 < ny; ++j)
        for (int i = 1; i + 1 < nx; ++i) {
          const int c = i * sx + j * sy + k * sz;
          b[c] = 0.4 * a[c] + 0.1 * (a[c - sx] + a[c + sx] + a[c - sy] +
                                     a[c + sy] + a[c - sz] + a[c + sz]);
        }
    a.swap(b);
  }
  return a[static_cast<std::size_t>(sz + sy + sx)];
}

/// Radix-2 butterflies over a 1024-point complex line, as the polar
/// Fourier filter makes.
double butterflies(int reps) {
  constexpr int n = 1024;
  std::vector<double> re(n), im(n, 0.0);
  for (int i = 0; i < n; ++i) re[i] = std::sin(0.1 * i);
  for (int rep = 0; rep < reps; ++rep) {
    for (int len = 2; len <= n; len <<= 1) {
      const double ang = -2.0 * 3.141592653589793 / len;
      const double wr0 = std::cos(ang), wi0 = std::sin(ang);
      for (int i = 0; i < n; i += len) {
        double wr = 1.0, wi = 0.0;
        for (int j = 0; j < len / 2; ++j) {
          const int p = i + j, q = p + len / 2;
          const double tr = re[q] * wr - im[q] * wi;
          const double ti = re[q] * wi + im[q] * wr;
          re[q] = re[p] - tr;
          im[q] = im[p] - ti;
          re[p] += tr;
          im[p] += ti;
          const double w = wr * wr0 - wi * wi0;
          wi = wr * wi0 + wi * wr0;
          wr = w;
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      re[i] *= 1.0 / 32;
      im[i] *= 1.0 / 32;
    }
  }
  return re[3];
}

/// A dependent chain of multiplies and divisions, as pointwise physics
/// and diagnostics make.
double scalar_chain(int iters) {
  double x = 1.0, y = 0.5;
  for (int i = 0; i < iters; ++i) {
    x = x * 0.9999999 + 1e-7;
    y = y * x + 0.25 / (1.0 + y);
  }
  return x + y;
}

}  // namespace

double reference_kernel_cpu_s() {
  const double t0 = thread_cpu_us();
  volatile double sink =
      stencil_sweeps(80) + butterflies(34) + scalar_chain(90000);
  const double t1 = thread_cpu_us();
  (void)sink;
  return (t1 - t0) * 1e-6;
}

int SpanLog::record(const char* name, double t0_us, double t1_us, int parent,
                    int run, int tid) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t0_us, t1_us, parent, run, tid});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::open(const char* name, int parent, int run, int tid) {
  const double t = now_us();
  return record(name, t, t, parent, run, tid);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1_us = t;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanLog::export_to(obs::TraceCollector& sink, int pid) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<obs::TraceEvent>> by_tid;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    obs::TraceEvent ev;
    ev.name = r.name;
    ev.category = "perfbench";
    ev.ts_us = r.t0_us;
    ev.dur_us = std::max(0.0, r.t1_us - r.t0_us);
    ev.detail = "id=" + std::to_string(i) + " parent=" +
                std::to_string(r.parent) + " run=" + std::to_string(r.run);
    const auto t = static_cast<std::size_t>(std::max(0, r.tid));
    if (by_tid.size() <= t) by_tid.resize(t + 1);
    by_tid[t].push_back(std::move(ev));
  }
  sink.set_process_name(pid, "perfbench");
  for (std::size_t t = 0; t < by_tid.size(); ++t)
    if (!by_tid[t].empty())
      sink.add(pid, static_cast<int>(t), std::move(by_tid[t]));
}

void export_trace(const SpanLog& log, const std::string& path, Result& r) {
  obs::TraceCollector sink;
  log.export_to(sink, 0);
  const std::string problem = obs::validate_chrome_trace(sink.chrome_trace());
  if (!problem.empty()) r.problem("trace rejected by its validator: " + problem);
  if (!sink.write(path)) r.problem("cannot write trace " + path);
  r.details["trace_path"] = path;
  r.details["trace_spans"] = static_cast<double>(log.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    std::getline(in, key);
  }
  return 0.0;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
