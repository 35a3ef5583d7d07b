// Small statistics helpers for experiment post-processing: running moments
// and least-squares line fits (used to calibrate the voltage/BER model and
// to report accuracy-vs-mul-count correlation).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace winofault {

// Welford running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  // Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};

// Ordinary least squares y = slope*x + intercept. Returns a zero fit when
// fewer than two distinct x values are provided.
LineFit fit_line(std::span<const double> xs, std::span<const double> ys);

// Pearson correlation; 0 when undefined.
double pearson(std::span<const double> xs, std::span<const double> ys);

}  // namespace winofault
