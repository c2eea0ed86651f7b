// Host-speed calibration of the end-to-end timings.
//
// The benchmark runs on shared hosts whose speed drifts by 1.3–1.5× over
// seconds to minutes (other guests on the same cores, caches and memory),
// and a slow spell can cover a whole run. The guest cannot see it: steal
// time stays 0 and CPU time grows exactly as wall time does. So right before
// and right after every timed call the driver runs a fixed calibration
// kernel — its own code, nothing from the library, so no change to the
// library moves it — and scales the call's wall time by how much slower
// than nominal the kernel ran. The result is the call's wall time at the
// nominal host speed, in seconds. On a 64×64 grid this cut the spread of
// ten runs' solve medians from 0.21 to 0.04 of the median.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// One host-speed sample: the median thread CPU seconds of five runs of the
/// calibration kernel (CG iterations over a 5-point grid Laplacian, a
/// hash-map workload and short-string appends — the mix of sparse sweeps,
/// pointer chasing and small allocations the solver's loops make). With
/// `threads` > 1 that many threads take a sample at once and the result is
/// their mean: the speed of the cores a call on a thread pool runs on.
double calibration_sample_s(std::size_t threads = 1);

/// The sample at the nominal host speed the timings are scaled to: about
/// the median sample on a shared 4-vCPU Intel Xeon VM at 2.0 GHz.
inline constexpr double kNominalCalibrationS = 2.5e-3;

/// `measured_s` scaled to the nominal host speed, given the calibration
/// sample that goes with it.
inline double at_nominal_speed(double measured_s, double calibration_s) {
  return measured_s * kNominalCalibrationS / calibration_s;
}

/// Calibration samples taken between timed calls.
class HostSpeed {
 public:
  /// Takes a sample. Returns the mean of it and the previous one: the
  /// calibration of the calls made between the two.
  double mark();
  /// Every sample so far, in seconds, for the report.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
