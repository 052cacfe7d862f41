// The seeded request stream of the serve_mixed workload.
//
// Each client connection reads its own deterministic stream, a pure
// function of (seed, client, slices).  The stream is built in blocks of
// kBlock requests: kMissesPerBlock of them, at seeded positions, are
// `solve` requests for fresh scenarios — one each on the line,
// comm:3|mix=0.05 and grid2d:1,4 domains, with a constant rate no other
// request uses — so they miss the service's cache.  The rest are
// `predict` requests over a small popular key set (every slice × two DL
// schemes) that set-up warms, so they hit.  Fixing the misses per block
// keeps the miss share identical from run to run (3/64 ≈ 4.7%, above
// the 1% that keeps p99 inside the miss population), and the grid2d
// share (1/64 ≈ 1.6%) puts p99 inside the grid2d misses, not on an edge
// between populations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct slice_info {
  std::string name;
  int max_distance = 0;
};

/// A popular (warmed) scenario: predict requests vary only x and t.
struct popular_key {
  std::size_t slice = 0;  ///< index into the slice list
  std::string scheme;     ///< wire name, e.g. "strang-cn"
};

struct serve_request {
  bool miss = false;
  std::string text;  ///< the wire request
  // predict requests
  std::size_t popular = 0;  ///< index into popular_keys()
  int x = 0;
  int t = 0;
  // solve (miss) requests
  std::string domain;  ///< "line", "comm:3|mix=0.05", "grid2d:1,4"
  std::string rate;    ///< the fresh "constant:<v>" spec
};

inline constexpr std::size_t kBlock = 64;
inline constexpr std::size_t kMissesPerBlock = 3;
/// Evaluated hours of the default window t0 = 1, t_end = 6.
inline constexpr int kFirstHour = 2;
inline constexpr int kLastHour = 6;

/// Every slice × {strang-cn, implicit-newton}, in that order.
[[nodiscard]] std::vector<popular_key> popular_keys(
    const std::vector<slice_info>& slices);

/// "predict model=dl slice=<s> scheme=<k> grid=20 x=<x> t=<t>".
[[nodiscard]] std::string predict_text(const std::vector<slice_info>& slices,
                                       const popular_key& key, int x, int t);

class request_stream {
 public:
  request_stream(std::vector<slice_info> slices, std::uint64_t seed,
                 std::size_t client);

  [[nodiscard]] serve_request next();

 private:
  [[nodiscard]] std::uint64_t draw();
  void plan_block();

  std::vector<slice_info> slices_;
  std::vector<popular_key> popular_;
  std::uint64_t seed_ = 0;
  std::size_t client_ = 0;
  std::uint64_t state_ = 0;
  std::size_t position_ = 0;  ///< requests issued so far
  std::size_t misses_ = 0;    ///< miss requests issued so far
  /// Per position of the current block: 0 hit, else 1 + domain index.
  std::vector<int> block_;
};

}  // namespace perfbench
