// Helpers shared by the command-line tools.  Header-only: CMake builds
// every tools/*.cpp as its own binary, with nothing linked between them.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dl_model.h"
#include "engine/scenario.h"

namespace dlm::cli {

using clock_type = std::chrono::steady_clock;

inline double elapsed_ms(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

/// Reports a command-line rejection the way the repo's spec parsers do:
/// the reason, then the 1-based argv position of the offending argument,
/// then the tool's usage block.  Returns the usage-error exit status 2.
inline int bad_cli(const char* tool, const std::string& reason, int position,
                   const std::string& usage) {
  std::fprintf(stderr, "%s: %s at position %d in command line\n\n%s", tool,
               reason.c_str(), position, usage.c_str());
  return 2;
}

/// Reads the whole of `text` as a number through std::from_chars.
/// Unlike std::stoul / std::strtod it rejects a sign (no "-1" wrapping
/// to 2^64 - 1), trailing bytes ("4x"), an empty value and, for doubles,
/// NaN and infinity.  Throws std::invalid_argument naming `flag`.
template <typename T>
T parse_cli_number(const std::string& flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && text.front() != '-' && ec == std::errc{} &&
            ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok)
    throw std::invalid_argument(
        flag + " expects a non-negative " +
        (std::is_floating_point_v<T> ? "finite number" : "integer") +
        ", got '" + std::string(text) + "'");
  return value;
}

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("cannot open '" + path.string() + "'");
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline void write_file(const std::filesystem::path& path,
                       std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw std::runtime_error("cannot open '" + path.string() +
                             "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out)
    throw std::runtime_error("write to '" + path.string() + "' failed");
}

/// Minimal JSON string escaping (manifest diagnostics carry signal names
/// and quoted paths).
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The single-slice "bench" surface behind `dl_serve --test-surface` and
/// `dl_shard --sweep bench`: generated by the DL model itself, so
/// calibrate specs recover the generating parameters, and instant to
/// build.  Both tools must serve this same slice for remote shards to
/// reproduce local bytes.
inline engine::scenario_context make_test_surface() {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const core::dl_model model(truth, initial, 1.0, 6.0);
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return engine::scenario_context::from_surface(
      "bench", social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

}  // namespace dlm::cli
