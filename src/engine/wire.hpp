// Binary wire protocol for the TCAM search service (server.hpp /
// client.hpp).  Little-endian, length-prefixed frames:
//
//   offset  size  field
//   0       4     magic        0xFE7CA301
//   4       1     version      1
//   5       1     type         FrameType
//   6       2     reserved     must be 0
//   8       4     payload_len  bytes following the 12-byte header
//
// kSearchBatch payload (client -> server):
//   u32 count            queries in the batch
//   u32 words_per_query  64-bit words per packed query
//   count * words_per_query * u64   query bits, bit c of the query at
//                                   word c/64, bit c%64 (PackedQuery
//                                   layout — zero marshalling on either
//                                   side of a packed kernel)
//
// kSearchResult payload (server -> client), one 13-byte record per query
// in request order:
//   u8  hit
//   i64 entry id
//   i32 priority
//
// kError payload: u32 code (ErrorCode) + UTF-8 message.  A malformed
// frame earns an error frame and closes THAT connection only; framing
// errors never tear down the server or other connections.
//
// kStats (client -> server) has an EMPTY payload (payload_len must be 0;
// anything else is kMalformed).  The server answers with kStatsResult,
// whose payload is the UTF-8 stats snapshot JSON (engine/stats.hpp,
// schema "fetcam.stats.v1").  Stats replies share the connection's
// response pipeline with search results, so a scrape observes every
// frame the same connection submitted before it as already applied.
//
// kNearest payload (client -> server) — threshold kNN batch:
//   u32 count            queries in the batch
//   u32 words_per_query  64-bit words per packed query
//   u32 k                neighbors requested per query (>= 1)
//   u32 threshold        max mismatching digits for a candidate
//   count * words_per_query * u64   query bits (PackedQuery layout)
//
// kNearestResult payload (server -> client), per query in request order:
//   u32 n                candidates returned (<= k)
//   n * { u64 entry id, i32 priority, u32 distance }   ascending by
//                        (distance, priority, id)
//
// The protocol is deliberately minimal: searches, kNN and stats scrapes
// only.  Mutations go through the compiler/applier path, not the wire —
// the service tier is a read path (docs/ENGINE.md section 8).
// Frame-type validity and request/response direction are decided by
// is_known_frame / is_request_frame below — the ONE validation point —
// so adding an opcode can never silently widen what a server accepts.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fetcam::engine::wire {

constexpr std::uint32_t kMagic = 0xFE7CA301u;
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderSize = 12;
/// Frames larger than this are rejected with kErrOversized before any
/// payload is buffered (a garbage length cannot balloon server memory).
constexpr std::uint32_t kMaxPayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kSearchBatch = 1,
  kSearchResult = 2,
  kError = 3,
  kStats = 4,          ///< stats scrape request (empty payload)
  kStatsResult = 5,    ///< stats snapshot JSON (UTF-8)
  kNearest = 6,        ///< threshold-kNN batch request
  kNearestResult = 7,  ///< per-query top-k candidate lists
};

/// The single frame-type whitelist.  decode_header rejects anything else
/// as kBadType, so every consumer inherits uniform unknown-opcode
/// rejection from one place.
inline bool is_known_frame(FrameType t) {
  switch (t) {
    case FrameType::kSearchBatch:
    case FrameType::kSearchResult:
    case FrameType::kError:
    case FrameType::kStats:
    case FrameType::kStatsResult:
    case FrameType::kNearest:
    case FrameType::kNearestResult:
      return true;
  }
  return false;
}

/// Client -> server direction.  The server consults this right after the
/// header decodes — a known-but-response-direction type (e.g. a client
/// echoing kSearchResult back) is rejected before any payload is waited
/// for, with the same kBadType error as an unknown opcode.
inline bool is_request_frame(FrameType t) {
  return t == FrameType::kSearchBatch || t == FrameType::kStats ||
         t == FrameType::kNearest;
}

enum class ErrorCode : std::uint32_t {
  kBadMagic = 1,
  kBadVersion = 2,
  kBadType = 3,
  kOversized = 4,
  kMalformed = 5,   ///< payload doesn't parse (truncated counts, ...)
  kBadWidth = 6,    ///< words_per_query doesn't match the table
  kShuttingDown = 7,
};

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint8_t version = kVersion;
  FrameType type = FrameType::kSearchBatch;
  std::uint32_t payload_len = 0;
};

struct SearchBatchFrame {
  std::uint32_t words_per_query = 0;
  /// count * words_per_query words, query-major.
  std::vector<std::uint64_t> bits;
  std::uint32_t count() const {
    return words_per_query == 0
               ? 0
               : static_cast<std::uint32_t>(bits.size() / words_per_query);
  }
};

struct ResultRecord {
  std::uint8_t hit = 0;
  std::int64_t entry = -1;
  std::int32_t priority = 0;
};

/// Largest k a kNearest request may carry: bounds the response frame a
/// single request can demand (together with the count/k/payload check in
/// decode_nearest_batch, a reply can never exceed kMaxPayload).
constexpr std::uint32_t kMaxNearestK = 1024;

struct NearestBatchFrame {
  std::uint32_t words_per_query = 0;
  std::uint32_t k = 1;          ///< neighbors per query (1..kMaxNearestK)
  std::uint32_t threshold = 0;  ///< max mismatching digits
  /// count * words_per_query words, query-major (PackedQuery layout).
  std::vector<std::uint64_t> bits;
  std::uint32_t count() const {
    return words_per_query == 0
               ? 0
               : static_cast<std::uint32_t>(bits.size() / words_per_query);
  }
};

/// One kNN candidate on the wire (16 bytes; ascending by
/// (distance, priority, id) within its query's list).
struct NearestRecord {
  std::int64_t entry = -1;
  std::int32_t priority = 0;
  std::uint32_t distance = 0;
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kMalformed;
  std::string message;
};

// ---- little-endian primitives -------------------------------------------

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// ---- header --------------------------------------------------------------

inline void encode_header(std::vector<std::uint8_t>& out, FrameType type,
                          std::uint32_t payload_len) {
  put_u32(out, kMagic);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u16(out, 0);
  put_u32(out, payload_len);
}

/// Parse the 12 header bytes at `p`.  Returns the header even on
/// validation failure; `error` reports the first violated rule (nullopt =
/// header is acceptable).  payload_len is NOT range-checked against the
/// buffer here — the caller streams the payload in afterwards.
inline FrameHeader decode_header(const std::uint8_t* p,
                                 std::optional<ErrorCode>& error) {
  FrameHeader h;
  h.magic = get_u32(p);
  h.version = p[4];
  h.type = static_cast<FrameType>(p[5]);
  h.payload_len = get_u32(p + 8);
  error.reset();
  if (h.magic != kMagic) {
    error = ErrorCode::kBadMagic;
  } else if (h.version != kVersion) {
    error = ErrorCode::kBadVersion;
  } else if (!is_known_frame(h.type)) {
    error = ErrorCode::kBadType;
  } else if (h.payload_len > kMaxPayload) {
    error = ErrorCode::kOversized;
  }
  return h;
}

// ---- frames --------------------------------------------------------------

inline void encode_search_batch(std::vector<std::uint8_t>& out,
                                const SearchBatchFrame& frame) {
  const std::uint32_t payload =
      8 + static_cast<std::uint32_t>(frame.bits.size()) * 8;
  encode_header(out, FrameType::kSearchBatch, payload);
  put_u32(out, frame.count());
  put_u32(out, frame.words_per_query);
  for (const std::uint64_t w : frame.bits) put_u64(out, w);
}

/// Decode a kSearchBatch payload (header already validated/stripped).
inline std::optional<SearchBatchFrame> decode_search_batch(
    const std::uint8_t* payload, std::size_t len) {
  if (len < 8) return std::nullopt;
  const std::uint32_t count = get_u32(payload);
  const std::uint32_t wpq = get_u32(payload + 4);
  if (count > 0 && wpq == 0) return std::nullopt;
  // count * wpq is exact in u64 (both factors < 2^32), but `words * 8`
  // can wrap — e.g. count = 2^31, wpq = 2^30 gives words = 2^61, whose
  // byte size is 0 mod 2^64 and would slip past the length check into a
  // 2^61-word resize.  Bound words by the bytes actually present first.
  const std::uint64_t words = static_cast<std::uint64_t>(count) * wpq;
  if (words > (len - 8) / 8) return std::nullopt;
  if (len != 8 + words * 8) return std::nullopt;
  SearchBatchFrame frame;
  frame.words_per_query = wpq;
  frame.bits.resize(words);
  for (std::uint64_t i = 0; i < words; ++i) {
    frame.bits[i] = get_u64(payload + 8 + i * 8);
  }
  return frame;
}

inline void encode_search_result(std::vector<std::uint8_t>& out,
                                 const std::vector<ResultRecord>& records) {
  const std::uint32_t payload =
      4 + static_cast<std::uint32_t>(records.size()) * 13;
  encode_header(out, FrameType::kSearchResult, payload);
  put_u32(out, static_cast<std::uint32_t>(records.size()));
  for (const ResultRecord& r : records) {
    out.push_back(r.hit);
    put_u64(out, static_cast<std::uint64_t>(r.entry));
    put_u32(out, static_cast<std::uint32_t>(r.priority));
  }
}

inline std::optional<std::vector<ResultRecord>> decode_search_result(
    const std::uint8_t* payload, std::size_t len) {
  if (len < 4) return std::nullopt;
  const std::uint32_t count = get_u32(payload);
  if (len != 4 + static_cast<std::uint64_t>(count) * 13) return std::nullopt;
  std::vector<ResultRecord> records(count);
  const std::uint8_t* p = payload + 4;
  for (std::uint32_t i = 0; i < count; ++i, p += 13) {
    records[i].hit = p[0];
    records[i].entry = static_cast<std::int64_t>(get_u64(p + 1));
    records[i].priority = static_cast<std::int32_t>(get_u32(p + 9));
  }
  return records;
}

inline void encode_nearest_batch(std::vector<std::uint8_t>& out,
                                 const NearestBatchFrame& frame) {
  const std::uint32_t payload =
      16 + static_cast<std::uint32_t>(frame.bits.size()) * 8;
  encode_header(out, FrameType::kNearest, payload);
  put_u32(out, frame.count());
  put_u32(out, frame.words_per_query);
  put_u32(out, frame.k);
  put_u32(out, frame.threshold);
  for (const std::uint64_t w : frame.bits) put_u64(out, w);
}

/// Decode a kNearest payload (header already validated/stripped).
inline std::optional<NearestBatchFrame> decode_nearest_batch(
    const std::uint8_t* payload, std::size_t len) {
  if (len < 16) return std::nullopt;
  const std::uint32_t count = get_u32(payload);
  const std::uint32_t wpq = get_u32(payload + 4);
  const std::uint32_t k = get_u32(payload + 8);
  const std::uint32_t threshold = get_u32(payload + 12);
  if (count > 0 && wpq == 0) return std::nullopt;
  if (k < 1 || k > kMaxNearestK) return std::nullopt;
  // Same u64-first overflow discipline as decode_search_batch: bound the
  // word count by the bytes actually present before any multiply-by-8.
  const std::uint64_t words = static_cast<std::uint64_t>(count) * wpq;
  if (words > (len - 16) / 8) return std::nullopt;
  if (len != 16 + words * 8) return std::nullopt;
  // Reject requests whose worst-case reply (k full candidate lists per
  // query) could not be framed — the response length is checked here, on
  // the request, so the server never builds an unsendable reply.
  const std::uint64_t reply_worst =
      4 + static_cast<std::uint64_t>(count) *
              (4 + static_cast<std::uint64_t>(k) * 16);
  if (reply_worst > kMaxPayload) return std::nullopt;
  NearestBatchFrame frame;
  frame.words_per_query = wpq;
  frame.k = k;
  frame.threshold = threshold;
  frame.bits.resize(words);
  for (std::uint64_t i = 0; i < words; ++i) {
    frame.bits[i] = get_u64(payload + 16 + i * 8);
  }
  return frame;
}

inline void encode_nearest_result(
    std::vector<std::uint8_t>& out,
    const std::vector<std::vector<NearestRecord>>& queries) {
  std::uint64_t payload = 4;
  for (const auto& q : queries) payload += 4 + q.size() * 16;
  encode_header(out, FrameType::kNearestResult,
                static_cast<std::uint32_t>(payload));
  put_u32(out, static_cast<std::uint32_t>(queries.size()));
  for (const auto& q : queries) {
    put_u32(out, static_cast<std::uint32_t>(q.size()));
    for (const NearestRecord& r : q) {
      put_u64(out, static_cast<std::uint64_t>(r.entry));
      put_u32(out, static_cast<std::uint32_t>(r.priority));
      put_u32(out, r.distance);
    }
  }
}

inline std::optional<std::vector<std::vector<NearestRecord>>>
decode_nearest_result(const std::uint8_t* payload, std::size_t len) {
  if (len < 4) return std::nullopt;
  const std::uint32_t count = get_u32(payload);
  // Every query list carries at least its 4-byte length, so bound the
  // untrusted count by the bytes present before reserving for it.
  if (count > (len - 4) / 4) return std::nullopt;
  std::vector<std::vector<NearestRecord>> queries;
  queries.reserve(count);
  std::size_t off = 4;
  for (std::uint32_t q = 0; q < count; ++q) {
    if (len - off < 4) return std::nullopt;
    const std::uint32_t n = get_u32(payload + off);
    off += 4;
    if (n > (len - off) / 16) return std::nullopt;
    std::vector<NearestRecord> records(n);
    for (std::uint32_t i = 0; i < n; ++i, off += 16) {
      records[i].entry = static_cast<std::int64_t>(get_u64(payload + off));
      records[i].priority =
          static_cast<std::int32_t>(get_u32(payload + off + 8));
      records[i].distance = get_u32(payload + off + 12);
    }
    queries.push_back(std::move(records));
  }
  if (off != len) return std::nullopt;
  return queries;
}

inline void encode_stats_request(std::vector<std::uint8_t>& out) {
  encode_header(out, FrameType::kStats, 0);
}

inline void encode_stats_result(std::vector<std::uint8_t>& out,
                                std::string_view json) {
  encode_header(out, FrameType::kStatsResult,
                static_cast<std::uint32_t>(json.size()));
  for (const char c : json) out.push_back(static_cast<std::uint8_t>(c));
}

inline std::string decode_stats_result(const std::uint8_t* payload,
                                       std::size_t len) {
  return std::string(reinterpret_cast<const char*>(payload), len);
}

inline void encode_error(std::vector<std::uint8_t>& out,
                         const ErrorFrame& err) {
  const std::uint32_t payload =
      4 + static_cast<std::uint32_t>(err.message.size());
  encode_header(out, FrameType::kError, payload);
  put_u32(out, static_cast<std::uint32_t>(err.code));
  for (const char c : err.message) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
}

inline std::optional<ErrorFrame> decode_error(const std::uint8_t* payload,
                                              std::size_t len) {
  if (len < 4) return std::nullopt;
  ErrorFrame err;
  err.code = static_cast<ErrorCode>(get_u32(payload));
  err.message.assign(reinterpret_cast<const char*>(payload + 4), len - 4);
  return err;
}

}  // namespace fetcam::engine::wire
