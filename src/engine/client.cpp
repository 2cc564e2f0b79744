#include "engine/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace fetcam::engine {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Pack `queries` (each `cols` bits) into a batch frame's query block,
/// PackedQuery layout.
template <class Frame>
void pack_queries(const std::vector<arch::BitWord>& queries, int cols,
                  Frame& frame) {
  frame.words_per_query = static_cast<std::uint32_t>((cols + 63) / 64);
  frame.bits.assign(queries.size() * frame.words_per_query, 0);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const arch::BitWord& query = queries[q];
    if (static_cast<int>(query.size()) != cols) {
      throw std::invalid_argument("query width mismatch");
    }
    std::uint64_t* words = frame.bits.data() + q * frame.words_per_query;
    for (int c = 0; c < cols; ++c) {
      if (query[static_cast<std::size_t>(c)] != 0) {
        words[c >> 6] |= 1ULL << (c & 63);
      }
    }
  }
}

/// Pass a reply through, or throw std::runtime_error on a server error
/// frame (the message includes the server's).
SearchClient::Reply ok_reply(SearchClient::Reply reply) {
  if (!reply.ok) {
    throw std::runtime_error("server error " +
                             std::to_string(static_cast<std::uint32_t>(
                                 reply.error.code)) +
                             ": " + reply.error.message);
  }
  return reply;
}

}  // namespace

SearchClient::~SearchClient() { close(); }

void SearchClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::invalid_argument("bad client host: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    throw_errno("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SearchClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

void SearchClient::send_all(const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void SearchClient::send_batch(const std::vector<arch::BitWord>& queries,
                              int cols) {
  if (fd_ < 0) throw std::runtime_error("client is not connected");
  wire::SearchBatchFrame frame;
  pack_queries(queries, cols, frame);
  std::vector<std::uint8_t> out;
  wire::encode_search_batch(out, frame);
  send_all(out.data(), out.size());
}

void SearchClient::send_nearest_batch(
    const std::vector<arch::BitWord>& queries, int cols, int k,
    int threshold) {
  if (fd_ < 0) throw std::runtime_error("client is not connected");
  if (k < 1) throw std::invalid_argument("k must be >= 1");
  if (threshold < 0) {
    throw std::invalid_argument("distance_threshold must be >= 0");
  }
  wire::NearestBatchFrame frame;
  frame.k = static_cast<std::uint32_t>(k);
  frame.threshold = static_cast<std::uint32_t>(threshold);
  pack_queries(queries, cols, frame);
  std::vector<std::uint8_t> out;
  wire::encode_nearest_batch(out, frame);
  send_all(out.data(), out.size());
}

void SearchClient::send_raw(const void* data, std::size_t len) {
  if (fd_ < 0) throw std::runtime_error("client is not connected");
  send_all(static_cast<const std::uint8_t*>(data), len);
}

void SearchClient::recv_exact(std::size_t n) {
  while (rx_.size() < n) {
    std::uint8_t buf[16384];
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    if (got > 0) {
      rx_.insert(rx_.end(), buf, buf + got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) throw_errno("recv");
    throw std::runtime_error("server closed the connection");
  }
}

SearchClient::Reply SearchClient::recv_reply() {
  if (fd_ < 0) throw std::runtime_error("client is not connected");
  recv_exact(wire::kHeaderSize);
  std::optional<wire::ErrorCode> header_error;
  const wire::FrameHeader header =
      wire::decode_header(rx_.data(), header_error);
  if (header_error) {
    throw std::runtime_error("garbage frame header from server");
  }
  recv_exact(wire::kHeaderSize + header.payload_len);
  const std::uint8_t* payload = rx_.data() + wire::kHeaderSize;
  Reply reply;
  if (header.type == wire::FrameType::kSearchResult) {
    auto records = wire::decode_search_result(payload, header.payload_len);
    if (!records) {
      throw std::runtime_error("malformed result frame from server");
    }
    reply.ok = true;
    reply.records = std::move(*records);
  } else if (header.type == wire::FrameType::kNearestResult) {
    auto lists = wire::decode_nearest_result(payload, header.payload_len);
    if (!lists) {
      throw std::runtime_error("malformed nearest frame from server");
    }
    reply.ok = true;
    reply.is_nearest = true;
    reply.neighbors = std::move(*lists);
  } else if (header.type == wire::FrameType::kStatsResult) {
    reply.ok = true;
    reply.is_stats = true;
    reply.stats_json = wire::decode_stats_result(payload, header.payload_len);
  } else if (header.type == wire::FrameType::kError) {
    auto err = wire::decode_error(payload, header.payload_len);
    if (!err) throw std::runtime_error("malformed error frame from server");
    reply.ok = false;
    reply.error = std::move(*err);
  } else {
    throw std::runtime_error("unexpected frame type from server");
  }
  rx_.erase(rx_.begin(),
            rx_.begin() + static_cast<std::ptrdiff_t>(wire::kHeaderSize +
                                                      header.payload_len));
  return reply;
}

void SearchClient::send_stats_request() {
  if (fd_ < 0) throw std::runtime_error("client is not connected");
  std::vector<std::uint8_t> out;
  wire::encode_stats_request(out);
  send_all(out.data(), out.size());
}

std::string SearchClient::stats() {
  send_stats_request();
  Reply reply = ok_reply(recv_reply());
  if (!reply.is_stats) {
    throw std::runtime_error("expected a stats reply, got a search result");
  }
  return std::move(reply.stats_json);
}

std::vector<wire::ResultRecord> SearchClient::search(
    const std::vector<arch::BitWord>& queries, int cols) {
  send_batch(queries, cols);
  Reply reply = ok_reply(recv_reply());
  return std::move(reply.records);
}

std::vector<std::vector<wire::NearestRecord>> SearchClient::search_nearest(
    const std::vector<arch::BitWord>& queries, int cols, int k,
    int threshold) {
  send_nearest_batch(queries, cols, k, threshold);
  Reply reply = ok_reply(recv_reply());
  if (!reply.is_nearest) {
    throw std::runtime_error("expected a nearest reply");
  }
  return std::move(reply.neighbors);
}

}  // namespace fetcam::engine
