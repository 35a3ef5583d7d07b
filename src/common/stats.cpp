#include "common/stats.h"

#include <cmath>

namespace winofault {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

LineFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  LineFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy <= 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  const LineFit fit = fit_line(xs, ys);
  if (fit.r2 <= 0.0) return 0.0;
  const double r = std::sqrt(fit.r2);
  return fit.slope >= 0 ? r : -r;
}

}  // namespace winofault
