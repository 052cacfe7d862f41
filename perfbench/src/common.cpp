#include "common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "digg/presets.h"
#include "digg/simulator.h"

extern char** environ;

namespace perfbench {

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::uint64_t dataset_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * i;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

dlm::engine::scenario_context make_digg_context(std::uint64_t seed) {
  dlm::digg::scenario_config config = dlm::digg::test_scale_scenario();
  config.seed = seed;
  return dlm::engine::scenario_context::from_dataset(
      dlm::digg::make_dataset(config));
}

std::string full(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

void report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok)
    std::fprintf(stderr, "perfbench: check '%s' FAILED%s%s\n", name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
}

void report::operations(std::size_t attempted, std::size_t failed) {
  ops_attempted_ += attempted;
  ops_failed_ += failed;
}

void report::samples(const std::string& name, const std::string& unit,
                     std::vector<double> values) {
  if (values.empty()) values.push_back(0.0);
  metrics_[name] = {unit, summarize(std::move(values))};
}

void report::value(const std::string& name, const std::string& unit,
                   double v) {
  samples(name, unit, {v});
}

void report::note(const std::string& key, const std::string& text) {
  notes_[key] = text;
}

std::size_t report::attempted() const {
  return ops_attempted_ + checks_.size();
}

std::size_t report::failed() const {
  std::size_t failed = ops_failed_;
  for (const check_result& c : checks_) failed += c.ok ? 0 : 1;
  return failed;
}

std::string report::to_json(const run_config& config) const {
  const std::size_t tried = attempted();
  const std::size_t bad = failed();
  std::string json = "{\"workload\": " + json_string(config.workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"seconds\": " + full(config.seconds) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"correct\": " + (bad == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tried) +
                     ", \"failed\": " + std::to_string(bad) +
                     ", \"fail_frac\": " +
                     full(tried == 0 ? 1.0
                                     : static_cast<double>(bad) /
                                           static_cast<double>(tried)) +
                     ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const check_result& c = checks_[i];
    json += (i > 0 ? ", " : "") + std::string("{\"name\": ") +
            json_string(c.name) + ", \"ok\": " + (c.ok ? "true" : "false") +
            (c.detail.empty() ? "" : ", \"detail\": " + json_string(c.detail)) +
            "}";
  }
  json += "], \"notes\": {";
  bool first = true;
  for (const auto& [key, text] : notes_) {
    json += (first ? "" : ", ") + json_string(key) + ": " + json_string(text);
    first = false;
  }
  json += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    json += (first ? "" : ", ") + json_string(name) +
            ": {\"value\": " + full(m.stats.median) +
            ", \"unit\": " + json_string(m.unit) +
            ", \"median\": " + full(m.stats.median) +
            ", \"q1\": " + full(m.stats.q1) + ", \"q3\": " + full(m.stats.q3) +
            ", \"n\": " + std::to_string(m.stats.n) + "}";
    first = false;
  }
  return json + "}}";
}

pid_t spawn(const std::vector<std::string>& argv,
            const std::filesystem::path& log) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string log_path = log.string();
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0)
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR)
      throw std::runtime_error(std::string("waitpid: ") + std::strerror(errno));
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 255;
}

int run(const std::vector<std::string>& argv,
        const std::filesystem::path& log) {
  return wait_exit(spawn(argv, log));
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double children_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
