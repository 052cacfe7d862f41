#include "request_stream.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

const char* const kMissDomains[kMissesPerBlock] = {"line", "comm:3|mix=0.05",
                                                   "grid2d:1,4"};

}  // namespace

std::vector<popular_key> popular_keys(const std::vector<slice_info>& slices) {
  std::vector<popular_key> keys;
  for (std::size_t s = 0; s < slices.size(); ++s)
    for (const char* scheme : {"strang-cn", "implicit-newton"})
      keys.push_back({s, scheme});
  return keys;
}

std::string predict_text(const std::vector<slice_info>& slices,
                         const popular_key& key, int x, int t) {
  return "predict model=dl slice=" + slices.at(key.slice).name +
         " scheme=" + key.scheme + " grid=20 x=" + std::to_string(x) +
         " t=" + std::to_string(t);
}

request_stream::request_stream(std::vector<slice_info> slices,
                               std::uint64_t seed, std::size_t client)
    : slices_(std::move(slices)),
      popular_(popular_keys(slices_)),
      seed_(seed),
      client_(client),
      state_(seed ^ (0x9e3779b97f4a7c15ull * (client + 1))) {
  if (slices_.empty())
    throw std::invalid_argument("request_stream: no slices");
}

std::uint64_t request_stream::draw() {
  // splitmix64: tiny, fast and identical on every platform.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void request_stream::plan_block() {
  block_.assign(kBlock, 0);
  std::vector<std::size_t> positions(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) positions[i] = i;
  for (std::size_t d = 0; d < kMissesPerBlock; ++d) {
    const std::size_t pick = d + draw() % (kBlock - d);
    std::swap(positions[d], positions[pick]);
    block_[positions[d]] = static_cast<int>(d) + 1;
  }
}

serve_request request_stream::next() {
  if (position_ % kBlock == 0) plan_block();
  const int slot = block_[position_ % kBlock];
  ++position_;

  serve_request r;
  if (slot == 0) {
    r.popular = draw() % popular_.size();
    const slice_info& slice = slices_[popular_[r.popular].slice];
    r.x = 1 + static_cast<int>(draw() % static_cast<std::uint64_t>(
                                            slice.max_distance));
    r.t = kFirstHour + static_cast<int>(draw() % (kLastHour - kFirstHour + 1));
    r.text = predict_text(slices_, popular_[r.popular], r.x, r.t);
    return r;
  }
  // A fresh constant rate: the seed picks the offset, (client, count)
  // make it unique among every request of the run.
  r.miss = true;
  r.domain = kMissDomains[slot - 1];
  const double rate = 0.2 + 0.1 * static_cast<double>(seed_ % 1000) / 1000.0 +
                      1e-9 * static_cast<double>(client_ + 1 + 8 * misses_);
  ++misses_;
  r.rate = "constant:" + full(rate);
  const slice_info& slice = slices_[draw() % slices_.size()];
  r.text = "solve model=dl slice=" + slice.name +
           " scheme=strang-cn grid=20 rate=" + r.rate + " domain=" + r.domain;
  return r;
}

}  // namespace perfbench
