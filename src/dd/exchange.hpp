#pragma once

// Partition-boundary wire formats and the interconnect model (paper
// Secs. 5.4.2-5.4.4).
//
//  * Wire / wire_value_bytes / halo_packet_bytes: the FP64, FP32 and BF16
//    halo wire formats of Sec. 5.4.2 and their byte accounting. The threaded
//    rank engine's HaloChannel packets (dd/mailbox.hpp) carry exactly these
//    formats — values genuinely pass through float/bf16 storage.
//  * CommModel: the time a real interconnect would take (latency per message
//    + bytes / bandwidth). The engine charges it to CommStats and, with wire
//    delay injection on, sleeps it out on the receiving lane; scaling benches
//    compose it with measured compute through the pipeline simulator
//    (dd/pipeline.hpp), the same methodology as network simulators like
//    SimGrid/LogGP.

#include <cmath>
#include <cstdint>

#include "la/mixed.hpp"

namespace dftfe::dd {

struct CommStats {
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
  double modeled_seconds = 0.0;  // interconnect model time
  double pack_seconds = 0.0;     // real pack/unpack time spent
  void clear() { *this = CommStats{}; }
};

enum class Wire { fp64, fp32, bf16 };

/// Bytes one value of T occupies on the wire under each format. BF16 packs a
/// real scalar into 2 bytes and a complex value into 4 (two bf16 units).
template <class T>
constexpr std::int64_t wire_value_bytes(Wire wire) {
  switch (wire) {
    case Wire::fp32:
      return static_cast<std::int64_t>(sizeof(la::low_precision_t<T>));
    case Wire::bf16:
      return la::bf16_units<T> * static_cast<std::int64_t>(sizeof(la::bf16_t));
    case Wire::fp64:
      break;
  }
  return static_cast<std::int64_t>(sizeof(T));
}

/// Bytes a halo packet of `values` values of T occupies on the wire: the
/// accounting formula of the threaded engine's HaloChannel packets
/// (dd/mailbox.hpp), behind its byte/message ledger and modeled ready-stamps.
/// tools/model_check sizes its scenario packets through the same channel API,
/// so the protocol it verifies carries exactly these packets.
template <class T>
constexpr std::int64_t halo_packet_bytes(std::int64_t values, Wire wire) {
  return values * wire_value_bytes<T>(wire);
}

struct CommModel {
  double bandwidth_bytes_per_s = 25e9;  // ~ one NIC link per rank pair
  double latency_s = 2e-6;

  double time(std::int64_t bytes, std::int64_t messages) const {
    return messages * latency_s + static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
  /// Recursive-doubling allreduce of `bytes` across `ranks`.
  double allreduce_time(std::int64_t bytes, int ranks) const {
    if (ranks <= 1) return 0.0;
    const int steps = static_cast<int>(std::ceil(std::log2(static_cast<double>(ranks))));
    return steps * (latency_s + static_cast<double>(bytes) / bandwidth_bytes_per_s);
  }
};

}  // namespace dftfe::dd
