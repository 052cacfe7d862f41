// serve_mixed: the resident predictor under a closed-loop request mix.

#include <map>
#include <memory>
#include <set>
#include <thread>

#include "core/accuracy.h"
#include "engine/format.h"
#include "engine/service.h"
#include "layers.h"
#include "request_stream.h"
#include "workloads.h"

namespace perfbench {

namespace engine = dlm::engine;

namespace {

constexpr std::size_t kClients = 4;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kCheckedPredicts = 24;

/// The run's datasets.  The service serves a merged context whose slices
/// ("d<i>/<slice>") copy these and point into their graphs, so the
/// sources must outlive every service started on them.
struct served_data {
  std::vector<engine::scenario_context> sources;
  /// Merged slice order: the source slice behind each served slice.
  std::vector<const engine::dataset_slice*> slices;
  std::vector<slice_info> infos;
};

std::unique_ptr<served_data> load_data(std::uint64_t seed) {
  auto data = std::make_unique<served_data>();
  for (std::size_t d = 0; d < kDatasets; ++d)
    data->sources.push_back(make_digg_context(dataset_seed(seed, d)));
  for (std::size_t d = 0; d < kDatasets; ++d) {
    const engine::scenario_context& source = data->sources[d];
    for (std::size_t s = 0; s < source.slice_count(); ++s) {
      data->slices.push_back(&source.slice(s));
      std::string name = "d";
      name += std::to_string(d) + "/" + source.slice(s).name;
      data->infos.push_back({std::move(name), source.slice(s).max_distance});
    }
  }
  return data;
}

engine::scenario_context merged_context(const served_data& data) {
  engine::scenario_context merged;
  for (std::size_t i = 0; i < data.slices.size(); ++i) {
    engine::dataset_slice slice = *data.slices[i];
    slice.name = data.infos[i].name;
    merged.add_slice(std::move(slice));
  }
  return merged;
}

/// What one closed-loop connection saw.
struct client_log {
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  /// Miss RTTs by the fresh rate they asked for (to pair with solve spans).
  std::vector<std::pair<std::string, double>> miss_by_rate;
  std::size_t not_ok = 0;
  std::size_t inconsistent = 0;
  double reply_bytes = 0.0;
  /// Distinct predict requests: text → (request, first reply).
  std::map<std::string, std::pair<serve_request, std::string>> predicts;
  std::string error;
  clock_type::time_point finished;
};

void drive(const std::string& socket, const std::vector<slice_info>& slices,
           std::uint64_t seed, std::size_t client,
           clock_type::time_point deadline, client_log& log) {
  try {
    engine::service_client connection(socket);
    request_stream stream(slices, seed, client);
    while (clock_type::now() < deadline) {
      serve_request r = stream.next();
      const clock_type::time_point sent = clock_type::now();
      std::string reply = connection.request(r.text);
      const double us = 1e6 * seconds_since(sent);
      log.reply_bytes += static_cast<double>(reply.size());
      if (!reply.starts_with(r.miss ? "ok trace " : "ok ")) ++log.not_ok;
      if (r.miss) {
        log.miss_us.push_back(us);
        log.miss_by_rate.emplace_back(r.rate, us);
        continue;
      }
      log.hit_us.push_back(us);
      const auto [it, fresh] = log.predicts.try_emplace(r.text);
      if (fresh)
        it->second = {std::move(r), std::move(reply)};
      else if (it->second.second != reply)
        ++log.inconsistent;
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
  log.finished = clock_type::now();
}

/// A started service, warmed on the popular key set.
struct live_service {
  std::unique_ptr<engine::dl_service> service;
  std::vector<slice_info> slices;
  std::size_t warm_requests = 0;
};

/// Starts a service on the merged context; returns seconds from the
/// constructor to the first answered ping.
double start(live_service& live, const served_data& data,
             const std::string& socket, const engine::model_registry* registry) {
  live.slices = data.infos;
  engine::service_options options;
  options.socket_path = socket;
  options.threads = 1;
  options.registry = registry;
  engine::scenario_context context = merged_context(data);
  const clock_type::time_point begin = clock_type::now();
  live.service = std::make_unique<engine::dl_service>(std::move(context), options);
  engine::service_client client(socket);
  if (client.request("ping") != "ok pong")
    throw std::runtime_error("service did not answer ping");
  return seconds_since(begin);
}

/// Solves every popular key once, so the measured predicts all hit.
void warm(live_service& live, const std::string& socket, report& rep) {
  engine::service_client client(socket);
  std::size_t bad = 0;
  for (const popular_key& key : popular_keys(live.slices)) {
    bad += client.request(predict_text(live.slices, key, 1, kFirstHour))
                   .starts_with("ok ")
               ? 0
               : 1;
    ++live.warm_requests;
  }
  rep.check("setup: every warm-up predict is answered ok", bad == 0);
}

/// Runs kClients closed-loop connections for `seconds`; returns the
/// phase's wall seconds.
double drive_all(const std::string& socket, const live_service& live,
                 std::uint64_t seed, double seconds,
                 std::vector<client_log>& logs) {
  logs.assign(kClients, {});
  const clock_type::time_point begin = clock_type::now();
  const clock_type::time_point deadline =
      begin + std::chrono::duration_cast<clock_type::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back(drive, std::cref(socket), std::cref(live.slices), seed,
                         c, deadline, std::ref(logs[c]));
  for (std::thread& t : threads) t.join();
  clock_type::time_point end = begin;
  for (const client_log& log : logs) end = std::max(end, log.finished);
  return std::chrono::duration<double>(end - begin).count();
}

struct phase_totals {
  std::vector<double> all_us;
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::size_t requests = 0;
  double reply_bytes = 0.0;
};

/// Checks one phase's replies and counters and returns its latencies.
phase_totals check_phase(const std::vector<client_log>& logs,
                         live_service& live, report& rep,
                         const std::string& phase) {
  phase_totals totals;
  std::size_t not_ok = 0;
  std::size_t inconsistent = 0;
  std::string errors;
  std::map<std::string, std::string> replies;
  for (const client_log& log : logs) {
    totals.hit_us.insert(totals.hit_us.end(), log.hit_us.begin(), log.hit_us.end());
    totals.miss_us.insert(totals.miss_us.end(), log.miss_us.begin(),
                          log.miss_us.end());
    totals.reply_bytes += log.reply_bytes;
    not_ok += log.not_ok;
    inconsistent += log.inconsistent;
    if (!log.error.empty()) errors += log.error + "; ";
    for (const auto& [text, entry] : log.predicts) {
      const auto [it, fresh] = replies.try_emplace(text, entry.second);
      if (!fresh && it->second != entry.second) ++inconsistent;
    }
  }
  totals.all_us = totals.hit_us;
  totals.all_us.insert(totals.all_us.end(), totals.miss_us.begin(),
                       totals.miss_us.end());
  totals.requests = totals.all_us.size();
  rep.operations(totals.requests, not_ok + (errors.empty() ? 0 : 1));

  const std::size_t hits = totals.hit_us.size();
  const std::size_t misses = totals.miss_us.size();
  const double share = totals.requests == 0
                           ? 0.0
                           : static_cast<double>(misses) /
                                 static_cast<double>(totals.requests);
  rep.check(phase + ": no connection failed", errors.empty(), errors);
  rep.check(phase + ": every reply is ok", not_ok == 0,
            std::to_string(not_ok) + " not ok");
  rep.check(phase + ": each distinct request always gets the same bytes",
            inconsistent == 0, std::to_string(inconsistent) + " differ");
  rep.check(phase + ": miss share is above 1%", share > 0.01,
            full(share));
  rep.check(phase + ": at least 1000 requests for p99",
            totals.requests >= 1000, std::to_string(totals.requests));
  rep.check(phase + ": no connection dropped",
            live.service->connections_dropped() == 0);
  // Every warm-up and miss request looks up once, misses, stores and
  // looks up again; every hit looks up once.
  const engine::cache_stats stats = live.service->stats();
  const std::size_t expect_misses = live.warm_requests + misses;
  const std::size_t expect_hits = live.warm_requests + misses + hits;
  rep.check(phase + ": cache lookups reconcile with requests",
            stats.misses == expect_misses && stats.hits == expect_hits,
            "hits " + std::to_string(stats.hits) + "/" +
                std::to_string(expect_hits) + ", misses " +
                std::to_string(stats.misses) + "/" +
                std::to_string(expect_misses));
  return totals;
}

dlm::core::dl_scheme scheme_named(const std::string& name) {
  using dlm::core::dl_scheme;
  for (const dl_scheme s : {dl_scheme::ftcs, dl_scheme::strang_cn,
                            dl_scheme::implicit_newton, dl_scheme::mol_rk4})
    if (dlm::core::to_string(s) == name) return s;
  throw std::invalid_argument("unknown scheme " + name);
}

/// Predict replies checked against an in-process solve of the same
/// scenario (a seeded sample: the first distinct predicts of client 0's
/// stream), plus the mean Eq. 8 accuracy of every distinct predict.
double check_predicts(const std::vector<client_log>& logs,
                      const served_data& data, std::uint64_t seed,
                      report& rep) {
  const std::vector<popular_key> keys = popular_keys(data.infos);
  const std::unique_ptr<engine::diffusion_model> model =
      engine::default_registry().make("dl");

  request_stream stream(data.infos, seed, 0);
  std::set<std::string> checked;
  std::size_t wrong = 0;
  for (std::size_t n = 0; checked.size() < kCheckedPredicts && n < 100000; ++n) {
    const serve_request r = stream.next();
    if (r.miss || checked.count(r.text) != 0) continue;
    const auto it = logs[0].predicts.find(r.text);
    if (it == logs[0].predicts.end()) break;  // the run ended before it
    engine::scenario sc;
    sc.model = "dl";
    sc.slice = keys[r.popular].slice;
    sc.scheme = scheme_named(keys[r.popular].scheme);
    sc.points_per_unit = 20;
    const engine::model_trace trace = model->solve(sc, *data.slices[sc.slice]);
    const double v = trace.predicted[static_cast<std::size_t>(r.x - 1)]
                                    [static_cast<std::size_t>(r.t - kFirstHour)];
    const bool ok = it->second.second == "ok " + engine::format_full_precision(v);
    checked.insert(r.text);
    wrong += ok ? 0 : 1;
  }
  rep.check("serve: sampled predicts equal an in-process solve",
            wrong == 0 && !checked.empty(),
            std::to_string(wrong) + " of " + std::to_string(checked.size()) +
                " differ");

  std::map<std::string, const std::pair<serve_request, std::string>*> distinct;
  for (const client_log& log : logs)
    for (const auto& [text, entry] : log.predicts) distinct.try_emplace(text, &entry);
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [text, entry] : distinct) {
    const serve_request& r = entry->first;
    const double actual = data.slices[keys[r.popular].slice]->actual_at(r.x, r.t);
    if (actual <= 0.0) continue;
    sum += dlm::core::prediction_accuracy(std::stod(entry->second.substr(3)),
                                          actual);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::string socket_path(const run_config& config) {
  return (config.workdir / "serve.sock").string();
}

void untraced(const run_config& config, report& rep) {
  const std::string socket = socket_path(config);
  std::vector<double> setup_s;
  std::unique_ptr<served_data> data;
  live_service live;
  for (int i = 0; i < kSetupRepeats; ++i) {
    live = {};  // stops the previous repeat's service before its data goes
    const clock_type::time_point begin = clock_type::now();
    data = load_data(config.seed);
    (void)start(live, *data, socket, nullptr);
    warm(live, socket, rep);
    setup_s.push_back(seconds_since(begin));
  }

  std::vector<client_log> logs;
  const double wall = drive_all(socket, live, config.seed, config.seconds, logs);
  const phase_totals totals = check_phase(logs, live, rep, "serve");
  live.service->stop();
  const double accuracy = check_predicts(logs, *data, config.seed, rep);

  rep.note("requests", std::to_string(totals.requests));
  rep.note("misses", std::to_string(totals.miss_us.size()));
  rep.samples("setup_s", "s", setup_s);
  rep.value("scenarios_per_s", "1/s", static_cast<double>(totals.requests) / wall);
  rep.value("p50_ms", "ms", 1e-3 * percentile(totals.all_us, 50));
  rep.value("iqm_ms", "ms", 1e-3 * interquartile_mean(totals.all_us));
  rep.value("p99_ms", "ms", 1e-3 * percentile(totals.all_us, 99));
  rep.value("peak_rss_mb", "MiB", self_peak_rss_mb());
  rep.value("mean_accuracy", "ratio", accuracy);
}

void traced(const run_config& config, report& rep) {
  const std::string socket = socket_path(config);
  const double phase_s = 0.5 * config.seconds;

  // Untraced phase: the reference mean round trip.
  const clock_type::time_point begin = clock_type::now();
  const std::unique_ptr<served_data> data = load_data(config.seed);
  rep.value("setup.dataset_ms", "ms", 1e3 * seconds_since(begin));
  double untraced_mean_us = 0.0;
  {
    live_service live;
    rep.value("setup.service_start_ms", "ms",
              1e3 * start(live, *data, socket, nullptr));
    warm(live, socket, rep);
    std::vector<client_log> logs;
    (void)drive_all(socket, live, config.seed, phase_s, logs);
    untraced_mean_us = mean(check_phase(logs, live, rep, "untraced").all_us);
  }

  // Traced phase: a fresh service whose registry times every solve and
  // whose cache reports every insert.
  recorder rec;
  const engine::model_registry registry = make_traced_registry(rec);
  live_service live;
  (void)start(live, *data, socket, &registry);
  const cache_observation seen(live.service->cache());
  warm(live, socket, rep);
  std::vector<client_log> logs;
  (void)drive_all(socket, live, config.seed, phase_s, logs);
  const phase_totals totals = check_phase(logs, live, rep, "traced");
  const std::vector<span> spans = rec.spans();

  std::map<std::string, double> solve_us;
  for (const span& s : spans)
    if (s.name == "solve") solve_us[s.key] = 1e6 * (s.end - s.start);
  std::vector<double> self_us;
  std::size_t unpaired = 0;
  for (const client_log& log : logs)
    for (const auto& [rate, us] : log.miss_by_rate) {
      const auto it = solve_us.find(rate);
      if (it == solve_us.end()) {
        ++unpaired;
        continue;
      }
      self_us.push_back(us - it->second);
    }
  rep.check("trace: every miss has exactly its solve span", unpaired == 0,
            std::to_string(unpaired) + " unpaired");

  rep.value("service.rtt_us.hit", "us", median(totals.hit_us));
  rep.value("service.rtt_us.miss", "us", median(totals.miss_us));
  rep.value("service.self_us.miss", "us", self_us.empty() ? 0.0 : median(self_us));
  rep.value("service.requests", "count",
            static_cast<double>(live.service->requests_served()));
  rep.value("service.dropped", "count",
            static_cast<double>(live.service->connections_dropped()));
  rep.value("service.reply_bytes_mean", "bytes",
            totals.reply_bytes / static_cast<double>(totals.requests));
  report_core(rep, spans);
  report_cache(rep, live.service->cache(), seen, config.workdir);
  rep.value("trace.overhead_frac", "ratio",
            (mean(totals.all_us) - untraced_mean_us) / untraced_mean_us);
  if (!config.trace_out.empty()) write_chrome_trace(spans, config.trace_out);
}

}  // namespace

void run_serve_mixed(const run_config& config, report& rep) {
  if (config.trace)
    traced(config, rep);
  else
    untraced(config, rep);
}

}  // namespace perfbench
