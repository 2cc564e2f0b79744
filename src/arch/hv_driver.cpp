#include "arch/hv_driver.hpp"

#include <stdexcept>

namespace fetcam::arch {

DriverBankReport driver_bank_report(const MatGeometry& g,
                                    const HvDriverParams& p) {
  DriverBankReport r;
  // Per 1.5T1Fe subarray: one BL write driver per column, and 2 SeL drivers
  // per row (SeL_a / SeL_b).
  const int per_subarray = g.cols + 2 * g.rows;
  r.drivers_dedicated = g.subarrays * per_subarray;
  // Fig. 6: BLs of one subarray and SeLs of the rotated neighbour share a
  // bank, halving the count — but only when the write and select voltages
  // were co-optimized to the same level.
  r.drivers_shared = p.voltages_match ? (r.drivers_dedicated + 1) / 2
                                      : r.drivers_dedicated;
  r.area_dedicated_um2 = r.drivers_dedicated * p.area_um2;
  r.area_shared_um2 = r.drivers_shared * p.area_um2;
  r.leakage_dedicated_nw = r.drivers_dedicated * p.leakage_nw;
  r.leakage_shared_nw = r.drivers_shared * p.leakage_nw;
  return r;
}

SharedDriverScheduler::SharedDriverScheduler(MatGeometry g, HvDriverParams p)
    : geom_(g), params_(p) {
  if (g.subarrays % 2 != 0) {
    throw std::invalid_argument("shared mat needs an even subarray count");
  }
  if (g.subarrays > 64) {
    throw std::invalid_argument(
        "shared mat supports at most 64 subarrays (one grant bit each)");
  }
  if (!p.voltages_match) {
    throw std::invalid_argument(
        "driver sharing requires the write/select voltage co-optimization");
  }
}

std::uint64_t SharedDriverScheduler::submit(
    const std::vector<MatOp>& requests) {
  if (static_cast<int>(requests.size()) != geom_.subarrays) {
    throw std::invalid_argument("one request per subarray expected");
  }
  ++cycles_;
  std::uint64_t granted = 0;
  // Subarrays are paired (0,1), (2,3), ...: each pair shares one bank that
  // can serve, per cycle, EITHER the write lines of one member OR the select
  // lines of the other member — but both members may search concurrently
  // only if one of them uses its own half of the bank; a write occupies the
  // full shared bank.
  for (std::size_t p = 0; p + 1 < requests.size(); p += 2) {
    const MatOp a = requests[p];
    const MatOp b = requests[p + 1];
    const bool bank_used = a != MatOp::kIdle || b != MatOp::kIdle;
    if (a == MatOp::kWrite && b != MatOp::kIdle) {
      // Write monopolizes the bank: the neighbour stalls.
      granted |= 1ULL << p;
      ++grants_;
      ++stalls_;
    } else if (b == MatOp::kWrite && a != MatOp::kIdle) {
      granted |= 1ULL << (p + 1);
      ++grants_;
      ++stalls_;
    } else {
      if (a != MatOp::kIdle) {
        granted |= 1ULL << p;
        ++grants_;
      }
      if (b != MatOp::kIdle) {
        granted |= 1ULL << (p + 1);
        ++grants_;
      }
    }
    if (bank_used) ++busy_bank_cycles_;
  }
  return granted;
}

void SharedDriverScheduler::broadcast(long long n) {
  if (n < 0) throw std::invalid_argument("broadcast cycle count must be >= 0");
  cycles_ += n;
  grants_ += n * geom_.subarrays;
  busy_bank_cycles_ += n * (geom_.subarrays / 2);
}

double SharedDriverScheduler::utilization() const {
  const long long banks = geom_.subarrays / 2;
  const long long total = cycles_ * banks;
  return total > 0 ? static_cast<double>(busy_bank_cycles_) / total : 0.0;
}

}  // namespace fetcam::arch
