#include "engine/shard.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "engine/calibration.h"

namespace dlm::engine {
namespace {

/// Fails a parse_shard_spec parse, mirroring make_rate/make_domain: the
/// reason, the offending token's 1-based character position, the spec
/// verbatim, and the full accepted grammar.
[[noreturn]] void bad_shard_spec(const std::string& spec,
                                 const std::string& reason,
                                 std::size_t offset = 0) {
  throw std::invalid_argument("parse_shard_spec: " + reason +
                              " at position " + std::to_string(offset + 1) +
                              " in shard spec '" + spec + "'\n" +
                              shard_spec_grammar());
}

/// What one calibrate scenario costs, in solves of the same lane.  On
/// the comparison sweep (dl_shard --sweep comparison, coarse_steps 3,
/// one thread) the 24 calibrate and calibrate-spatial scenarios took a
/// median 287 times their scheme/grid/domain's preset solve (82–928).
/// The plan is insensitive to the exact figure: multipliers from 30 to
/// 3000 gave slowest shards within 3% of each other there.
constexpr std::uint64_t kCalibrationSolves = 300;

/// The owning shard of every chunk: LPT over the summed scenario_cost
/// of each chunk's lanes.  Plain uint64 sums: even a wrapped total is
/// the same in every worker, so the plan stays exact.
std::vector<std::size_t> chunk_owners(
    const std::vector<std::vector<std::size_t>>& chunks,
    std::span<const scenario> scenarios, std::size_t shard_count) {
  std::vector<std::uint64_t> cost(chunks.size(), 0);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (const std::size_t i : chunks[c]) {
      if (i >= scenarios.size())
        throw std::invalid_argument(
            "shard_chunks: chunk member " + std::to_string(i) +
            " out of range for " + std::to_string(scenarios.size()) +
            " scenarios");
      cost[c] += scenario_cost(scenarios[i]);
    }
  }
  // Costliest first; stable, so equal costs keep ascending chunk order.
  std::vector<std::size_t> order(chunks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  // Min-heap of (load, shard): the least-loaded shard, lowest index on a
  // tie.  Shards past the chunk count would only ever stay empty.
  using load = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<load, std::vector<load>, std::greater<>> shards;
  for (std::size_t s = 0; s < std::min(shard_count, chunks.size()); ++s)
    shards.emplace(0, s);
  std::vector<std::size_t> owner(chunks.size(), 0);
  for (const std::size_t c : order) {
    const auto [total, s] = shards.top();
    shards.pop();
    owner[c] = s;
    shards.emplace(total + cost[c], s);
  }
  return owner;
}

std::size_t parse_shard_size(std::string_view text, const std::string& spec,
                             const std::string& what, std::size_t offset) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    bad_shard_spec(spec, "bad " + what + " '" + std::string(text) + "'",
                   offset);
  return value;
}

}  // namespace

void shard_spec::validate() const {
  if (count == 0)
    throw std::invalid_argument("shard_spec: shard count must be positive");
  if (index >= count)
    throw std::invalid_argument(
        "shard_spec: shard index " + std::to_string(index) +
        " out of range for " + std::to_string(count) + " shards");
}

std::string shard_spec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

const std::string& shard_spec_grammar() {
  static const std::string grammar =
      "accepted shard spec form:\n"
      "  <i>/<N>  shard i of N (0-based, 0 <= i < N); chunks are "
      "cost-balanced across the N shards";
  return grammar;
}

shard_spec parse_shard_spec(const std::string& spec) {
  if (spec.empty()) bad_shard_spec(spec, "empty shard spec");
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos)
    bad_shard_spec(spec, "missing '/' between shard index and count");
  const std::string_view text(spec);

  shard_spec shard;
  shard.index =
      parse_shard_size(text.substr(0, slash), spec, "shard index", 0);
  shard.count = parse_shard_size(text.substr(slash + 1), spec,
                                 "shard count", slash + 1);
  if (shard.count == 0)
    bad_shard_spec(spec, "shard count must be positive", slash + 1);
  if (shard.index >= shard.count)
    bad_shard_spec(spec,
                   "shard index " + std::to_string(shard.index) +
                       " out of range for " + std::to_string(shard.count) +
                       " shards");
  return shard;
}

std::uint64_t scenario_cost(const scenario& sc) {
  if (sc.points_per_unit == 0) return 1;  // no grid: a closed form
  // An unparsable domain fails its own scenario inside run_sweep, with
  // the scenario named; here it merely counts as one block.
  std::size_t blocks = 1;
  try {
    blocks = make_domain(sc.domain).blocks(sc.points_per_unit);
  } catch (const std::invalid_argument&) {
  }
  // A huge or NaN step count must not reach the integer cast; past
  // that, plain uint64 arithmetic (a wrapped cost is still the same in
  // every worker).
  std::uint64_t steps = 1;
  if (sc.dt > 0.0) {
    const double exact_steps = (sc.t_end - sc.t0) / sc.dt;
    if (exact_steps > 1.0)
      steps = exact_steps < 0x1p62
                  ? static_cast<std::uint64_t>(std::ceil(exact_steps))
                  : std::uint64_t{1} << 62;
  }
  std::uint64_t cost = std::uint64_t{sc.points_per_unit} * blocks * steps;
  if (is_calibrate_spec(sc.rate)) cost *= kCalibrationSolves;
  return std::max<std::uint64_t>(cost, 1);
}

std::vector<std::vector<std::size_t>> shard_chunks(
    const std::vector<std::vector<std::size_t>>& chunks,
    std::span<const scenario> scenarios, const shard_spec& shard) {
  shard.validate();
  if (shard.is_all()) return chunks;
  const std::vector<std::size_t> owner =
      chunk_owners(chunks, scenarios, shard.count);
  std::vector<std::vector<std::size_t>> mine;
  for (std::size_t c = 0; c < chunks.size(); ++c)
    if (owner[c] == shard.index) mine.push_back(chunks[c]);
  return mine;
}

}  // namespace dlm::engine
