// Shared high-voltage driver architecture (paper Sec. III-B4, Fig. 6).
//
// Device/circuit co-optimization makes the DG-FeFET LVT write voltage equal
// to the BG read (select) voltage — 2.0 V — so one HV driver can drive BLs
// during writes and SeLs during searches.  Because BLs and SeLs run
// perpendicular and are never active at the same time within a subarray,
// adjacent 90-degree-rotated subarrays (4 per mat) share driver banks in a
// time-multiplexed way, halving driver count.
//
// This model answers the questions Fig. 6 raises: how many drivers, how much
// area and leakage is saved, how busy the drivers are, and what scheduling
// conflicts the time multiplexing introduces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fetcam::arch {

struct HvDriverParams {
  double area_um2 = 12.0;     ///< one HV (2 V) level-shifting driver
  double leakage_nw = 2.0;    ///< idle leakage per driver, nW
  bool voltages_match = true; ///< write and select voltage co-optimized equal
};

struct MatGeometry {
  int rows = 64;   ///< per subarray
  int cols = 64;
  int subarrays = 4;  ///< one mat
};

enum class MatOp { kIdle, kSearch, kWrite };

struct DriverBankReport {
  int drivers_dedicated = 0;
  int drivers_shared = 0;
  double area_dedicated_um2 = 0.0;
  double area_shared_um2 = 0.0;
  double leakage_dedicated_nw = 0.0;
  double leakage_shared_nw = 0.0;
  double area_saving() const {
    return area_dedicated_um2 > 0.0
               ? 1.0 - area_shared_um2 / area_dedicated_um2
               : 0.0;
  }
};

/// Driver counts/area/leakage for a mat of 1.5T1Fe subarrays, dedicated vs
/// shared.  Sharing requires voltages_match (the co-optimization); without
/// it, separate write and select banks are needed and nothing is saved.
DriverBankReport driver_bank_report(const MatGeometry& g,
                                    const HvDriverParams& p);

/// Cycle-accurate-ish schedule simulation of a shared mat: each cycle every
/// subarray requests an operation; a shared bank serves the write lines of
/// one subarray and the select lines of its 90-degree neighbour, so a write
/// in one subarray conflicts with a concurrent search in the paired one.
class SharedDriverScheduler {
 public:
  SharedDriverScheduler(MatGeometry g, HvDriverParams p);

  /// Submit one cycle of per-subarray requests (size == subarrays).
  /// Returns which subarrays were granted this cycle, bit i for subarray
  /// i; denied requests are counted as stalls (the caller retries next
  /// cycle).
  std::uint64_t submit(const std::vector<MatOp>& requests);
  /// n all-kSearch cycles in closed form: a search broadcast needs no
  /// write lines, so every subarray is granted and every bank is busy —
  /// exactly what n submit() calls of all-kSearch requests would count.
  void broadcast(long long n);

  long long cycles() const { return cycles_; }
  long long grants() const { return grants_; }
  long long stalls() const { return stalls_; }
  /// Fraction of driver-bank cycles doing useful work.
  double utilization() const;

 private:
  MatGeometry geom_;
  HvDriverParams params_;
  long long cycles_ = 0;
  long long grants_ = 0;
  long long stalls_ = 0;
  long long busy_bank_cycles_ = 0;
};

}  // namespace fetcam::arch
