#include "engine/workload.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "arch/approx_search.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {

namespace {

// Counter-based RNG streams (util/rng.hpp convention): one stream per
// consumer so adding draws to one never perturbs another.
constexpr std::uint64_t kRuleStream = 0;
constexpr std::uint64_t kQueryStream = 1;
constexpr std::uint64_t kUpdateStream = 2;
constexpr std::uint64_t kChurnStream = 3;

arch::BitWord random_bits(std::mt19937& rng, int cols) {
  std::uniform_int_distribution<int> bit(0, 1);
  arch::BitWord q(static_cast<std::size_t>(cols));
  for (auto& b : q) b = static_cast<std::uint8_t>(bit(rng));
  return q;
}

TraceRule make_ip_prefix_rule(std::mt19937& rng, int cols) {
  // Prefix-length mix loosely shaped like a routing table: a few short
  // (default-ish) routes, a body of mid-length prefixes, a tail of
  // near-host routes.  Priority = cols - length, so longer prefixes win.
  std::uniform_int_distribution<int> bucket(0, 9);
  const int b = bucket(rng);
  int len;
  if (b == 0) {
    len = std::uniform_int_distribution<int>(0, cols / 4)(rng);
  } else if (b <= 6) {
    len = std::uniform_int_distribution<int>(cols / 2, 3 * cols / 4)(rng);
  } else {
    len = std::uniform_int_distribution<int>(3 * cols / 4, cols)(rng);
  }
  std::uniform_int_distribution<int> bit(0, 1);
  TraceRule r;
  r.entry.reserve(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    if (c < len) {
      r.entry.push_back(bit(rng) != 0 ? arch::Ternary::kOne
                                      : arch::Ternary::kZero);
    } else {
      r.entry.push_back(arch::Ternary::kX);
    }
  }
  r.priority = cols - len;
  return r;
}

TraceRule make_embedding_rule(std::mt19937& rng, int cols) {
  // A binary embedding code: every column specified, no wildcards, flat
  // priority — ranking among near-duplicates is purely by distance.
  std::uniform_int_distribution<int> bit(0, 1);
  TraceRule r;
  r.entry.reserve(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    r.entry.push_back(bit(rng) != 0 ? arch::Ternary::kOne
                                    : arch::Ternary::kZero);
  }
  return r;
}

TraceRule make_trace_rule(TraceKind kind, std::mt19937& rng, int cols);

TraceRule make_classifier_rule(std::mt19937& rng, int cols) {
  // Four fields (src / dst / proto / port -like), whole-field wildcards;
  // priority = wildcarded fields, so more specific rules win.
  const int base = cols / 4;
  const int rem = cols % 4;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> bit(0, 1);
  TraceRule r;
  r.entry.reserve(static_cast<std::size_t>(cols));
  for (int f = 0; f < 4; ++f) {
    const int width = base + (f < rem ? 1 : 0);
    const bool wild = u(rng) < 0.3;
    if (wild) ++r.priority;
    for (int c = 0; c < width; ++c) {
      if (wild) {
        r.entry.push_back(arch::Ternary::kX);
      } else {
        r.entry.push_back(bit(rng) != 0 ? arch::Ternary::kOne
                                        : arch::Ternary::kZero);
      }
    }
  }
  return r;
}

TraceRule make_trace_rule(TraceKind kind, std::mt19937& rng, int cols) {
  switch (kind) {
    case TraceKind::kIpPrefix: return make_ip_prefix_rule(rng, cols);
    case TraceKind::kClassifier: return make_classifier_rule(rng, cols);
    case TraceKind::kEmbedding: return make_embedding_rule(rng, cols);
  }
  return make_ip_prefix_rule(rng, cols);
}

}  // namespace

std::string trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kIpPrefix: return "ip-prefix";
    case TraceKind::kClassifier: return "classifier";
    case TraceKind::kEmbedding: return "embedding";
  }
  return "?";
}

Trace generate_trace(const TraceSpec& spec) {
  if (spec.cols <= 0 || spec.rules < 0 || spec.queries < 0) {
    throw std::invalid_argument("trace spec needs cols > 0 and counts >= 0");
  }
  Trace trace;
  trace.cols = spec.cols;
  trace.rules.reserve(static_cast<std::size_t>(spec.rules));
  for (int i = 0; i < spec.rules; ++i) {
    auto rng = util::trial_rng(spec.seed, static_cast<std::uint64_t>(i),
                               kRuleStream);
    trace.rules.push_back(make_trace_rule(spec.kind, rng, spec.cols));
  }
  trace.queries.reserve(static_cast<std::size_t>(spec.queries));
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> bit(0, 1);
  const int d = spec.digit_bits > 0 ? spec.digit_bits : 1;
  for (int j = 0; j < spec.queries; ++j) {
    auto rng = util::trial_rng(spec.seed, static_cast<std::uint64_t>(j),
                               kQueryStream);
    const bool derive = !trace.rules.empty() && u(rng) < spec.match_rate;
    if (spec.kind == TraceKind::kEmbedding && derive) {
      // Planted near-duplicate: copy a stored code, then flip 0-2 whole
      // digits (a flip inverts one bit inside the digit, so the digit is
      // guaranteed to mismatch).  Exact search loses these the moment a
      // single digit flips; threshold search is supposed to recover them.
      const std::size_t r = std::uniform_int_distribution<std::size_t>(
          0, trace.rules.size() - 1)(rng);
      const auto& entry = trace.rules[r].entry;
      arch::BitWord q(static_cast<std::size_t>(spec.cols));
      for (std::size_t c = 0; c < q.size(); ++c) {
        q[c] = entry[c] == arch::Ternary::kOne ? 1 : 0;
      }
      const int digits = spec.cols / d;
      const int flips = std::uniform_int_distribution<int>(0, 2)(rng);
      for (int f = 0; f < flips && digits > 0; ++f) {
        const int g = std::uniform_int_distribution<int>(0, digits - 1)(rng);
        const int c = g * d + std::uniform_int_distribution<int>(0, d - 1)(rng);
        q[static_cast<std::size_t>(c)] ^= 1;
      }
      trace.queries.push_back(std::move(q));
    } else if (derive) {
      // Derive from a stored rule: exact digits copied, 'X' digits drawn
      // at random — guaranteed to match at least that rule.
      const std::size_t r = std::uniform_int_distribution<std::size_t>(
          0, trace.rules.size() - 1)(rng);
      const auto& entry = trace.rules[r].entry;
      arch::BitWord q(static_cast<std::size_t>(spec.cols));
      for (std::size_t c = 0; c < q.size(); ++c) {
        switch (entry[c]) {
          case arch::Ternary::kOne: q[c] = 1; break;
          case arch::Ternary::kZero: q[c] = 0; break;
          case arch::Ternary::kX:
            q[c] = static_cast<std::uint8_t>(bit(rng));
            break;
        }
      }
      trace.queries.push_back(std::move(q));
    } else {
      trace.queries.push_back(random_bits(rng, spec.cols));
    }
  }
  return trace;
}

bool save_trace(const Trace& trace, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "# fetcam engine trace v1\n";
  f << "cols " << trace.cols << "\n";
  for (const auto& r : trace.rules) {
    f << "rule " << arch::to_string(r.entry) << " " << r.priority << "\n";
  }
  for (const auto& q : trace.queries) {
    f << "query " << arch::to_string(q) << "\n";
  }
  return f.good();
}

std::optional<Trace> load_trace(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  Trace trace;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "cols") {
      if (!(is >> trace.cols) || trace.cols <= 0) return std::nullopt;
    } else if (tag == "rule") {
      std::string word;
      int priority = 0;
      if (!(is >> word >> priority)) return std::nullopt;
      TraceRule r;
      try {
        r.entry = arch::word_from_string(word);
      } catch (const std::invalid_argument&) {
        return std::nullopt;
      }
      if (static_cast<int>(r.entry.size()) != trace.cols) return std::nullopt;
      r.priority = priority;
      trace.rules.push_back(std::move(r));
    } else if (tag == "query") {
      std::string word;
      if (!(is >> word)) return std::nullopt;
      arch::BitWord q;
      try {
        q = arch::bits_from_string(word);
      } catch (const std::invalid_argument&) {
        return std::nullopt;
      }
      if (static_cast<int>(q.size()) != trace.cols) return std::nullopt;
      trace.queries.push_back(std::move(q));
    } else {
      return std::nullopt;
    }
  }
  if (trace.cols <= 0) return std::nullopt;
  return trace;
}

std::vector<TraceRule> churn_rules(const std::vector<TraceRule>& rules,
                                   TraceKind kind, int cols,
                                   const ChurnSpec& spec, int step) {
  if (cols <= 0) throw std::invalid_argument("churn needs cols > 0");
  std::vector<TraceRule> next;
  next.reserve(rules.size());
  const std::size_t hot_count = static_cast<std::size_t>(
      spec.hot_fraction * static_cast<double>(rules.size()));
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    // One stream per (step, rule): editing rule i never perturbs rule j.
    auto rng = util::trial_rng(
        spec.seed,
        (static_cast<std::uint64_t>(step) << 32) | static_cast<std::uint64_t>(i),
        kChurnStream);
    TraceRule r = rules[i];
    const bool hot = i < hot_count;
    if (!hot && u(rng) < spec.add_remove_rate) {
      // Drop this rule and add a fresh one (route withdrawn + announced).
      next.push_back(make_trace_rule(kind, rng, cols));
      continue;
    }
    const double rate = hot ? spec.hot_modify_rate : spec.modify_rate;
    if (u(rng) < rate) {
      // Edit 1-3 digits in place: the minimal-rewrite case the delta
      // planner should turn into a single in-place row update.
      const int edits = std::uniform_int_distribution<int>(1, 3)(rng);
      std::uniform_int_distribution<int> pos(0, cols - 1);
      std::uniform_int_distribution<int> digit(0, 2);
      for (int e = 0; e < edits; ++e) {
        r.entry[static_cast<std::size_t>(pos(rng))] =
            static_cast<arch::Ternary>(digit(rng));
      }
    }
    if (u(rng) < spec.priority_jitter_rate) {
      r.priority += std::uniform_int_distribution<int>(0, 1)(rng) != 0 ? 1 : -1;
      if (r.priority < 0) r.priority = 0;
    }
    next.push_back(std::move(r));
  }
  return next;
}

std::vector<EntryId> load_rules(TcamTable& table, const Trace& trace) {
  if (trace.rules.size() > table.capacity()) {
    throw std::invalid_argument("table too small for trace rules");
  }
  std::vector<EntryId> ids;
  ids.reserve(trace.rules.size());
  for (const auto& r : trace.rules) {
    const EntryId id = table.insert(r.entry, r.priority);
    if (id == kInvalidEntry) {
      throw std::runtime_error("table full while loading rules");
    }
    ids.push_back(id);
  }
  return ids;
}

std::vector<EntryId> load_rules_clustered(TcamTable& table,
                                          const Trace& trace) {
  if (trace.rules.size() > table.capacity()) {
    throw std::invalid_argument("table too small for trace rules");
  }
  const TableConfig& cfg = table.config();
  const int mats = cfg.mats;
  // Bucket key: the leading ceil(log2(mats)) even columns.  Even (step-1)
  // columns are the only ones a two-step design may prune on (see
  // TcamTable::mat_skips), so agreeing there is what keeps a mat's
  // aggregate masks tight.  Rules wildcarding any key column would poison
  // whichever mat they land in, so they go to the spill pass instead.
  int kbits = 0;
  while ((1 << kbits) < mats) ++kbits;
  const int nbuckets = 1 << kbits;
  std::vector<std::vector<std::size_t>> buckets(
      static_cast<std::size_t>(nbuckets));
  std::vector<std::size_t> spill;
  for (std::size_t i = 0; i < trace.rules.size(); ++i) {
    const auto& entry = trace.rules[i].entry;
    int key = 0;
    bool defined = true;
    for (int k = 0; k < kbits; ++k) {
      const std::size_t col = static_cast<std::size_t>(2 * k);
      if (col >= entry.size() || entry[col] == arch::Ternary::kX) {
        defined = false;
        break;
      }
      key = (key << 1) | (entry[col] == arch::Ternary::kOne ? 1 : 0);
    }
    if (defined) {
      buckets[static_cast<std::size_t>(key)].push_back(i);
    } else {
      spill.push_back(i);
    }
  }

  std::vector<int> room(static_cast<std::size_t>(mats), cfg.rows_per_mat);
  std::vector<EntryId> ids(trace.rules.size(), kInvalidEntry);
  const auto place = [&](std::size_t rule, int mat) {
    const EntryId id = table.insert(trace.rules[rule].entry,
                                    trace.rules[rule].priority, mat);
    if (id == kInvalidEntry) {
      throw std::runtime_error("mat full while clustering rules");
    }
    ids[rule] = id;
    --room[static_cast<std::size_t>(mat)];
  };
  // Pass 1: bucket b fills its home mat; overflow joins the spill.
  for (int b = 0; b < nbuckets; ++b) {
    const int mat = b * mats / nbuckets;
    for (const std::size_t rule : buckets[static_cast<std::size_t>(b)]) {
      if (room[static_cast<std::size_t>(mat)] > 0) {
        place(rule, mat);
      } else {
        spill.push_back(rule);
      }
    }
  }
  // Pass 2: spill rules go wherever they least damage the pruning index —
  // the open mat whose live aggregate they overlap most (ties: lowest
  // mat).  Deterministic: spill order and the greedy scan are both fixed.
  // Each rule is packed once for its probes of every open mat.
  const std::size_t lanes =
      static_cast<std::size_t>(arch::ternary_lanes(
          static_cast<std::size_t>(cfg.cols)));
  std::vector<std::uint64_t> packed(2 * lanes);
  std::uint64_t* care = packed.data();
  std::uint64_t* value = care + lanes;
  for (const std::size_t rule : spill) {
    const arch::TernaryWord& entry = trace.rules[rule].entry;
    if (static_cast<int>(entry.size()) != cfg.cols) {
      throw std::invalid_argument("rule width mismatch");
    }
    arch::pack_ternary(entry, care, value);
    int best = -1;
    int best_overlap = -1;
    for (int m = 0; m < mats; ++m) {
      if (room[static_cast<std::size_t>(m)] <= 0) continue;
      const int overlap = table.aggregate_overlap(m, care, value);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = m;
      }
    }
    place(rule, best);  // always found: total rules <= capacity
  }
  return ids;
}

RunSummary run_trace(SearchEngine& engine, const TcamTable& table,
                     const Trace& trace, const std::vector<EntryId>& rule_ids,
                     const RunOptions& options) {
  RunSummary sum;
  const double energy_before = table.total_energy_j();
  const int batch_size = options.batch_size > 0 ? options.batch_size : 256;
  std::uniform_real_distribution<double> u(0.0, 1.0);

  // Build all batches first (request kinds are needed again when the
  // results come back, to count hits over searches only).
  std::vector<std::vector<Request>> batches;
  std::vector<std::vector<RequestKind>> kinds;
  std::vector<Request> batch;
  std::vector<RequestKind> batch_kinds;
  batch.reserve(static_cast<std::size_t>(batch_size));
  for (std::size_t j = 0; j < trace.queries.size(); ++j) {
    bool is_update = false;
    if (options.update_rate > 0.0 && !rule_ids.empty()) {
      auto rng = util::trial_rng(options.seed, static_cast<std::uint64_t>(j),
                                 kUpdateStream);
      if (u(rng) < options.update_rate) {
        // Rule refresh: rewrite a stored rule in place (the classic TCAM
        // table-maintenance write) — driver-multiplex pressure without
        // changing what later queries match.
        const std::size_t r = std::uniform_int_distribution<std::size_t>(
            0, rule_ids.size() - 1)(rng);
        batch.push_back(make_update(rule_ids[r], trace.rules[r].entry));
        is_update = true;
      }
    }
    if (!is_update) batch.push_back(make_search(trace.queries[j]));
    batch_kinds.push_back(batch.back().kind);
    if (static_cast<int>(batch.size()) == batch_size) {
      batches.push_back(std::move(batch));
      kinds.push_back(std::move(batch_kinds));
      batch.clear();
      batch_kinds.clear();
      batch.reserve(static_cast<std::size_t>(batch_size));
    }
  }
  if (!batch.empty()) {
    batches.push_back(std::move(batch));
    kinds.push_back(std::move(batch_kinds));
  }

  // Submit everything (bounded queue applies backpressure), then collect
  // in order.
  const double t0 = obs::now_us();
  std::vector<std::future<BatchResult>> futures;
  futures.reserve(batches.size());
  for (auto& b : batches) futures.push_back(engine.submit(std::move(b)));

  std::vector<double> batch_wall_us;
  batch_wall_us.reserve(futures.size());
  long long rows_searched = 0;
  long long step1_misses = 0;
  for (std::size_t b = 0; b < futures.size(); ++b) {
    const BatchResult res = futures[b].get();
    ++sum.batches;
    sum.requests += res.results.size();
    sum.driver_stalls += res.driver_stalls;
    sum.write_cycles += res.write_cycles;
    sum.model_time_s += res.model_latency_s;
    rows_searched += res.stats.rows;
    step1_misses += res.stats.step1_misses;
    batch_wall_us.push_back(res.wall_us);
    for (std::size_t i = 0; i < res.results.size(); ++i) {
      if (kinds[b][i] == RequestKind::kSearch) {
        ++sum.searches;
        if (res.results[i].hit) ++sum.hits;
      } else if (kinds[b][i] == RequestKind::kUpdate) {
        ++sum.writes;
      }
    }
  }
  sum.wall_s = (obs::now_us() - t0) * 1e-6;

  sum.hit_rate = sum.searches > 0
                     ? static_cast<double>(sum.hits) /
                           static_cast<double>(sum.searches)
                     : 0.0;
  sum.step1_miss_rate =
      rows_searched > 0
          ? static_cast<double>(step1_misses) /
                static_cast<double>(rows_searched)
          : 0.0;
  sum.energy_j = table.total_energy_j() - energy_before;
  sum.energy_per_search_j =
      sum.searches > 0 ? sum.energy_j / static_cast<double>(sum.searches)
                       : 0.0;
  sum.qps = sum.wall_s > 0.0
                ? static_cast<double>(sum.searches) / sum.wall_s
                : 0.0;
  if (!batch_wall_us.empty()) {
    std::sort(batch_wall_us.begin(), batch_wall_us.end());
    sum.p50_batch_us = batch_wall_us[batch_wall_us.size() / 2];
    sum.p99_batch_us =
        batch_wall_us[(batch_wall_us.size() * 99) / 100 >=
                              batch_wall_us.size()
                          ? batch_wall_us.size() - 1
                          : (batch_wall_us.size() * 99) / 100];
  }
  return sum;
}

std::vector<NearCandidate> brute_force_nearest(
    const Trace& trace, const std::vector<EntryId>& rule_ids,
    const arch::BitWord& query, int digit_bits, int k, int threshold) {
  if (rule_ids.size() != trace.rules.size()) {
    throw std::invalid_argument("rule_ids does not cover the trace rules");
  }
  std::vector<NearCandidate> top;
  for (std::size_t r = 0; r < trace.rules.size(); ++r) {
    const int dist =
        arch::digit_distance(trace.rules[r].entry, query, digit_bits);
    if (dist > threshold) continue;
    NearCandidate cand;
    cand.entry = rule_ids[r];
    cand.priority = trace.rules[r].priority;
    cand.distance = dist;
    if (top.size() == static_cast<std::size_t>(k) &&
        !near_candidate_less(cand, top.back())) {
      continue;
    }
    const auto at = std::upper_bound(top.begin(), top.end(), cand,
                                     [](const NearCandidate& a,
                                        const NearCandidate& b) {
                                       return near_candidate_less(a, b);
                                     });
    top.insert(at, cand);
    if (top.size() > static_cast<std::size_t>(k)) top.pop_back();
  }
  return top;
}

NearestRunSummary run_nearest_trace(SearchEngine& engine,
                                    const TcamTable& table,
                                    const Trace& trace,
                                    const std::vector<EntryId>& rule_ids,
                                    const NearestRunOptions& options) {
  if (options.k < 1) throw std::invalid_argument("k must be >= 1");
  if (options.threshold < 0) {
    throw std::invalid_argument("distance_threshold must be >= 0");
  }
  NearestRunSummary sum;
  sum.k = options.k;
  sum.threshold = options.threshold;
  sum.distance_histogram.assign(
      static_cast<std::size_t>(options.threshold) + 1, 0);
  const double energy_before = table.total_energy_j();
  const int batch_size = options.batch_size > 0 ? options.batch_size : 256;
  const int digit_bits = table.config().digit_bits;
  // Evenly-strided recall sample (see NearestRunOptions::recall_sample).
  const std::size_t stride =
      options.recall_sample > 0
          ? std::max<std::size_t>(
                1, trace.queries.size() /
                       static_cast<std::size_t>(options.recall_sample))
          : 0;

  std::vector<std::vector<Request>> batches;
  std::vector<Request> batch;
  batch.reserve(static_cast<std::size_t>(batch_size));
  for (const arch::BitWord& q : trace.queries) {
    batch.push_back(make_search_nearest(q, options.k, options.threshold));
    if (static_cast<int>(batch.size()) == batch_size) {
      batches.push_back(std::move(batch));
      batch.clear();
      batch.reserve(static_cast<std::size_t>(batch_size));
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));

  const double t0 = obs::now_us();
  std::vector<std::future<BatchResult>> futures;
  futures.reserve(batches.size());
  for (auto& b : batches) futures.push_back(engine.submit(std::move(b)));

  std::vector<double> batch_wall_us;
  batch_wall_us.reserve(futures.size());
  // Sampled (query, engine top-k) pairs, scored against the brute-force
  // reference AFTER the clock stops — the O(rules x cols) reference must
  // not pollute the throughput measurement.
  std::vector<std::pair<std::size_t, std::vector<NearCandidate>>> sampled;
  std::size_t query_index = 0;
  for (auto& future : futures) {
    const BatchResult res = future.get();
    ++sum.batches;
    sum.requests += res.results.size();
    sum.model_time_s += res.model_latency_s;
    batch_wall_us.push_back(res.wall_us);
    for (const RequestResult& r : res.results) {
      ++sum.searches;
      if (r.hit) {
        ++sum.hits;
        sum.distance_histogram[static_cast<std::size_t>(r.distance)] += 1;
      }
      if (stride > 0 && query_index % stride == 0) {
        sampled.emplace_back(query_index, r.neighbors);
      }
      ++query_index;
    }
  }
  sum.wall_s = (obs::now_us() - t0) * 1e-6;

  double recall_sum = 0.0;
  for (const auto& [q, neighbors] : sampled) {
    const auto ref = brute_force_nearest(trace, rule_ids, trace.queries[q],
                                         digit_bits, options.k,
                                         options.threshold);
    if (ref.empty()) continue;
    std::size_t found = 0;
    for (const NearCandidate& want : ref) {
      for (const NearCandidate& got : neighbors) {
        if (got.entry == want.entry) {
          ++found;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(found) / static_cast<double>(ref.size());
    ++sum.recall_queries;
  }

  sum.hit_rate = sum.searches > 0
                     ? static_cast<double>(sum.hits) /
                           static_cast<double>(sum.searches)
                     : 0.0;
  sum.recall_at_k = sum.recall_queries > 0
                        ? recall_sum / static_cast<double>(sum.recall_queries)
                        : 1.0;
  sum.energy_j = table.total_energy_j() - energy_before;
  sum.energy_per_search_j =
      sum.searches > 0 ? sum.energy_j / static_cast<double>(sum.searches)
                       : 0.0;
  sum.qps = sum.wall_s > 0.0
                ? static_cast<double>(sum.searches) / sum.wall_s
                : 0.0;
  if (!batch_wall_us.empty()) {
    std::sort(batch_wall_us.begin(), batch_wall_us.end());
    sum.p50_batch_us = batch_wall_us[batch_wall_us.size() / 2];
    sum.p99_batch_us =
        batch_wall_us[(batch_wall_us.size() * 99) / 100 >=
                              batch_wall_us.size()
                          ? batch_wall_us.size() - 1
                          : (batch_wall_us.size() * 99) / 100];
  }
  return sum;
}

}  // namespace fetcam::engine
