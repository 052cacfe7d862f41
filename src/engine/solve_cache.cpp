#include "engine/solve_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "engine/format.h"

namespace dlm::engine {
namespace {

/// Bitwise double equality — the determinism contract is about bits,
/// and NaN payloads must compare equal to themselves.
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

bool traces_bitwise_equal(const model_trace& a, const model_trace& b) {
  if (a.domain != b.domain || a.distances != b.distances ||
      !bits_equal(a.effective_dt, b.effective_dt) ||
      !bits_equal(a.times, b.times) ||
      a.predicted.size() != b.predicted.size())
    return false;
  for (std::size_t i = 0; i < a.predicted.size(); ++i)
    if (!bits_equal(a.predicted[i], b.predicted[i])) return false;
  return true;
}

/// Payload comparison and observer call per entry kind, for the one
/// insert template below.
bool same_payload(const std::shared_ptr<const model_trace>& a,
                  const std::shared_ptr<const model_trace>& b) {
  return traces_bitwise_equal(*a, *b);
}
bool same_payload(double a, double b) { return bits_equal(a, b); }

void notify(const solve_cache::write_observer& observer,
            const std::string& key,
            const std::shared_ptr<const model_trace>& trace) {
  observer(key, trace.get(), nullptr);
}
void notify(const solve_cache::write_observer& observer,
            const std::string& key, double value) {
  observer(key, nullptr, &value);
}

}  // namespace

void solve_cache::link_front(lru_links& e) {
  e.prev = &head_;
  e.next = head_.next;
  head_.next->prev = &e;
  head_.next = &e;
}

void solve_cache::unlink(lru_links& e) {
  e.prev->next = e.next;
  e.next->prev = e.prev;
}

void solve_cache::evict_overflow() {
  if (max_entries_ == 0) return;
  while (traces_.size() + values_.size() > max_entries_ &&
         head_.prev != &head_) {
    lru_links& victim = *head_.prev;
    unlink(victim);
    // Erase by node: the lookup reads the victim's own key, the erase
    // takes the iterator and never that reference.
    if (victim.kind == entry_kind::trace) {
      traces_.erase(traces_.find(*victim.key));
    } else {
      values_.erase(values_.find(*victim.key));
    }
    ++stats_.evictions;
  }
}

template <class Map, class Payload>
solve_cache::merge_outcome solve_cache::insert(Map& map, std::string key,
                                               Payload payload, bool merging,
                                               Payload* held) {
  std::shared_ptr<const write_observer> observer;
  std::string observed_key;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // try_emplace moves the key only when the node is created: a present
    // key keeps the first insert (first insert wins).
    const auto [it, fresh] = map.try_emplace(std::move(key));
    if (held != nullptr) *held = fresh ? payload : it->second.payload;
    if (!fresh) {
      if (!merging || same_payload(it->second.payload, payload))
        return merge_outcome::duplicate;
      ++stats_.merge_conflicts;
      return merge_outcome::conflict;
    }
    it->second.payload = payload;
    it->second.key = &it->first;
    it->second.kind = std::is_same_v<Payload, double> ? entry_kind::value
                                                      : entry_kind::trace;
    link_front(it->second);
    if (merging) ++stats_.merged_entries;
    observer = observer_;
    // The observer runs after unlocking, when another thread may already
    // have evicted this node: it gets its own copy of the key.
    if (observer != nullptr) observed_key = it->first;
    evict_overflow();
  }
  // Outside the lock (see set_write_observer): even an entry the LRU cap
  // evicted immediately is still observed — journaling it is harmless,
  // replay re-applies the cap.
  if (observer != nullptr) notify(*observer, observed_key, payload);
  return merge_outcome::inserted;
}

std::shared_ptr<const model_trace> solve_cache::find_trace(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traces_.find(key);
  if (it == traces_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  unlink(it->second);  // refresh recency
  link_front(it->second);
  return it->second.payload;
}

std::shared_ptr<const model_trace> solve_cache::store_trace(
    std::string key, model_trace trace) {
  auto held = std::make_shared<const model_trace>(std::move(trace));
  (void)insert(traces_, std::move(key), held, false, &held);
  return held;
}

void solve_cache::import_trace(std::string key,
                               std::shared_ptr<const model_trace> trace) {
  (void)insert(traces_, std::move(key), std::move(trace), false);
}

std::optional<double> solve_cache::find_value(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  unlink(it->second);  // refresh recency
  link_front(it->second);
  return it->second.payload;
}

void solve_cache::store_value(std::string key, double value) {
  import_value(std::move(key), value);
}

void solve_cache::import_value(std::string key, double value) {
  (void)insert(values_, std::move(key), value, false);
}

std::vector<solve_cache::trace_export> solve_cache::export_traces() const {
  std::vector<trace_export> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(traces_.size());
    for (const auto& [key, entry] : traces_)
      out.push_back({key, entry.payload});
  }
  std::sort(out.begin(), out.end(),
            [](const trace_export& a, const trace_export& b) {
              return a.key < b.key;
            });
  return out;
}

std::vector<solve_cache::value_export> solve_cache::export_values() const {
  std::vector<value_export> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(values_.size());
    for (const auto& [key, entry] : values_)
      out.push_back({key, entry.payload});
  }
  std::sort(out.begin(), out.end(),
            [](const value_export& a, const value_export& b) {
              return a.key < b.key;
            });
  return out;
}

solve_cache::merge_outcome solve_cache::merge_trace(
    std::string key, std::shared_ptr<const model_trace> trace) {
  return insert(traces_, std::move(key), std::move(trace), true);
}

solve_cache::merge_outcome solve_cache::merge_value(std::string key,
                                                    double value) {
  return insert(values_, std::move(key), value, true);
}

void solve_cache::set_write_observer(write_observer observer) {
  auto shared =
      observer ? std::make_shared<const write_observer>(std::move(observer))
               : std::shared_ptr<const write_observer>();
  const std::lock_guard<std::mutex> lock(mutex_);
  observer_ = std::move(shared);
}

void solve_cache::count_load_rejected() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.load_rejected;
}

cache_stats solve_cache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t solve_cache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return traces_.size() + values_.size();
}

void solve_cache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  traces_.clear();
  values_.clear();
  head_.prev = head_.next = &head_;
  stats_ = cache_stats{};
}

std::string resolve_rate_spec(const std::string& spec,
                              social::distance_metric metric) {
  const auto resolve_temporal = [metric](const std::string& body) {
    if (body == "preset")
      return metric == social::distance_metric::friendship_hops
                 ? std::string("paper_hops")
                 : std::string("paper_interest");
    return body;
  };
  if (spec.starts_with("spatial:")) {
    // Canonicalize the base so "spatial:preset|..." on a hop slice and
    // "spatial:paper_hops|..." share one cache entry.
    const std::string body = spec.substr(sizeof("spatial:") - 1);
    const std::size_t bar = body.find('|');
    if (bar == std::string::npos) return spec;  // malformed; make_rate throws
    return "spatial:" + resolve_temporal(body.substr(0, bar)) +
           body.substr(bar);
  }
  if (spec.starts_with("per-hop:")) {
    std::string out = "per-hop:";
    std::string body = spec.substr(sizeof("per-hop:") - 1);
    std::size_t start = 0;
    while (true) {
      const std::size_t at = body.find(';', start);
      out += resolve_temporal(body.substr(
          start, at == std::string::npos ? at : at - start));
      if (at == std::string::npos) break;
      out += ';';
      start = at + 1;
    }
    return out;
  }
  return resolve_temporal(spec);
}

std::string scenario_cache_key(const scenario& sc, const dataset_slice& slice,
                               const diffusion_model& model) {
  // Name + content fingerprint: a colliding slice name in another
  // context must not alias this slice's entries.
  std::string key = "slice=" + slice.name + '#' +
                    std::to_string(slice.fingerprint) + "|model=" + sc.model;
  key += "|scheme=";
  key += model.uses_scheme() ? core::to_string(sc.scheme) : "-";
  key += "|grid=";
  key += model.uses_grid() ? std::to_string(sc.points_per_unit) : "0";
  key += "|dt=";
  key += model.uses_scheme() ? format_full_precision(sc.dt) : "0";
  key += "|rate=";
  key += model.uses_rate() ? resolve_rate_spec(sc.rate, slice.metric) : "-";
  key += "|t0=" + format_full_precision(sc.t0) + "|t_end=" + format_full_precision(sc.t_end);
  key += "|seed=" + std::to_string(sc.seed);
  key += "|d=";
  key += sc.d_override ? format_full_precision(*sc.d_override) : "-";
  key += "|k=";
  key += sc.k_override ? format_full_precision(*sc.k_override) : "-";
  // Canonical domain label, appended only for a non-line domain on a
  // domain-capable model — 1-D keys stay byte-identical to every release
  // before the domain axis existed, so persistent caches keep hitting.
  if (model.supports_domain()) {
    const core::domain dom = make_domain(sc.domain);
    if (!dom.is_line()) key += "|domain=" + dom.label();
  }
  return key;
}

}  // namespace dlm::engine
