#include "engine/service.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/calibration.h"
#include "engine/format.h"

namespace dlm::engine {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Reads exactly `n` bytes.  Returns false on EOF (clean or mid-read:
/// either way the peer is gone); throws on socket errors.
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EINTR) continue;
      // SO_RCVTIMEO expiry: the peer stalled mid-frame (or went idle
      // past the configured window) — drop it rather than pin the
      // worker thread.
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error("dl_service: recv timed out");
      throw_errno("dl_service: recv");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as
    // EPIPE here, not kill the process with SIGPIPE.
    const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error("dl_service: send timed out");
      throw_errno("dl_service: send");
    }
    sent += static_cast<std::size_t>(r);
  }
}

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t') ++i;
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

/// Reads the whole of `text` as a T; false on any leftover byte.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// A request's real-valued argument (dt, t0, t_end, t, d, k): parsed
/// whole and finite.  No solve is defined for an infinite one, and a NaN
/// fails every later range check silently and would enter the cache key,
/// so both are rejected here, at the boundary.
bool parse_finite(std::string_view text, double& out) {
  return parse_number(text, out) && std::isfinite(out);
}

bool parse_scheme(std::string_view text, core::dl_scheme& out) {
  for (const core::dl_scheme scheme :
       {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
        core::dl_scheme::implicit_newton, core::dl_scheme::mol_rk4}) {
    if (text == core::to_string(scheme)) {
      out = scheme;
      return true;
    }
  }
  return false;
}

/// Parsed key=value arguments of a solve / predict / calibrate request.
struct request_args {
  scenario sc;
  std::string slice_name;
  bool have_model = false;
  bool have_slice = false;
  int x = 0;
  double t = 0.0;
  bool have_x = false;
  bool have_t = false;
};

/// Fills `args` from the tokens after the verb.  Returns an "err ..."
/// string on the first malformed token, empty on success.
std::string parse_request_args(const std::vector<std::string>& tokens,
                               request_args& args) {
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      return "err malformed token '" + token + "' (expected key=value)";
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    const auto bad_value = [&] {
      return "err cannot parse " + key + "='" + value + "'";
    };
    if (key == "model") {
      args.sc.model = value;
      args.have_model = true;
    } else if (key == "slice") {
      args.slice_name = value;
      args.have_slice = true;
    } else if (key == "scheme") {
      if (!parse_scheme(value, args.sc.scheme))
        return "err unknown scheme '" + value +
               "' (ftcs, strang-cn, implicit-newton, mol-rk4)";
    } else if (key == "grid") {
      if (!parse_number(value, args.sc.points_per_unit)) return bad_value();
    } else if (key == "dt") {
      if (!parse_finite(value, args.sc.dt)) return bad_value();
    } else if (key == "rate") {
      args.sc.rate = value;
    } else if (key == "domain") {
      args.sc.domain = value;
    } else if (key == "t0") {
      if (!parse_finite(value, args.sc.t0)) return bad_value();
    } else if (key == "t_end") {
      if (!parse_finite(value, args.sc.t_end)) return bad_value();
    } else if (key == "seed") {
      std::size_t seed = 0;
      if (!parse_number(value, seed)) return bad_value();
      args.sc.seed = seed;
    } else if (key == "d" || key == "k") {
      double v = 0.0;
      if (!parse_finite(value, v)) return bad_value();
      (key == "d" ? args.sc.d_override : args.sc.k_override) = v;
    } else if (key == "x") {
      // An integral value inside int's range (NaN and infinities fail
      // the comparisons), checked before the cast.
      double x = 0.0;
      if (!parse_number(value, x) || x != std::floor(x) ||
          !(x >= std::numeric_limits<int>::min() &&
            x <= std::numeric_limits<int>::max()))
        return bad_value();
      args.x = static_cast<int>(x);
      args.have_x = true;
    } else if (key == "t") {
      if (!parse_finite(value, args.t)) return bad_value();
      args.have_t = true;
    } else {
      return "err unknown key '" + key + "'";
    }
  }
  return {};
}

/// Deterministic textual rendering of a trace (the "solve" response
/// body): every double through format_full_precision, so two identical
/// requests always read identical bytes.
std::string format_trace(const model_trace& trace) {
  std::string out = "ok trace rows=" + std::to_string(trace.distances.size()) +
                    " cols=" + std::to_string(trace.times.size()) +
                    " effective_dt=" + format_full_precision(trace.effective_dt);
  // Appended only for non-line domains, so line responses keep their
  // historical byte-exact shape.
  if (trace.domain != "line") out += " domain=" + trace.domain;
  out += "\nx";
  for (const int d : trace.distances) out += ' ' + std::to_string(d);
  out += "\nt";
  for (const double t : trace.times) out += ' ' + format_full_precision(t);
  for (const std::vector<double>& row : trace.predicted) {
    out += "\np";
    for (const double v : row) out += ' ' + format_full_precision(v);
  }
  return out;
}

[[noreturn]] void bad_reply(const std::string& reply) {
  throw std::runtime_error("remote_registry: malformed server reply '" +
                           reply + "'");
}

/// The value of the "key=" token among `tokens`; a reply without it is
/// malformed.
std::string_view reply_field(const std::vector<std::string>& tokens,
                             std::string_view key, const std::string& reply) {
  for (const std::string& token : tokens)
    if (token.size() > key.size() && token.starts_with(key) &&
        token[key.size()] == '=')
      return std::string_view(token).substr(key.size() + 1);
  bad_reply(reply);
}

template <typename T>
T reply_number(std::string_view text, const std::string& reply) {
  T value{};
  if (!parse_number(text, value)) bad_reply(reply);
  return value;
}

/// format_trace's inverse.  Every double went out through
/// format_full_precision, so parsing recovers the server's exact bits —
/// which is what keeps remote rows byte-identical to local ones.
model_trace parse_trace_reply(const std::string& reply) {
  const std::vector<std::string> lines = split_keep_empty(reply, '\n');
  if (lines.size() < 3) bad_reply(reply);
  const std::vector<std::string> head = tokenize(lines[0]);
  if (head.size() < 2 || head[0] != "ok" || head[1] != "trace")
    bad_reply(reply);
  const auto rows =
      reply_number<std::size_t>(reply_field(head, "rows", reply), reply);
  const auto cols =
      reply_number<std::size_t>(reply_field(head, "cols", reply), reply);
  model_trace trace;
  trace.effective_dt =
      reply_number<double>(reply_field(head, "effective_dt", reply), reply);
  // "domain=" is present only for non-line domains.
  if (lines[0].find(" domain=") != std::string::npos)
    trace.domain = std::string(reply_field(head, "domain", reply));
  if (lines.size() != 3 + rows) bad_reply(reply);

  // The body: one "<tag> v..." line each for x, t and every p row.
  const auto body_line = [&](std::size_t line, std::string_view tag,
                             std::size_t count) {
    std::vector<std::string> tokens = tokenize(lines[line]);
    if (tokens.size() != count + 1 || tokens[0] != tag) bad_reply(reply);
    tokens.erase(tokens.begin());
    return tokens;
  };
  for (const std::string& x : body_line(1, "x", rows))
    trace.distances.push_back(reply_number<int>(x, reply));
  for (const std::string& t : body_line(2, "t", cols))
    trace.times.push_back(reply_number<double>(t, reply));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double>& row = trace.predicted.emplace_back();
    row.reserve(cols);
    for (const std::string& p : body_line(3 + r, "p", cols))
      row.push_back(reply_number<double>(p, reply));
  }
  return trace;
}

/// The "calibrate" reply ("ok fit d=... k=... a=... b=... c=... m=...
/// sse=... evals=... rate=...") as the calibration it reports.
scenario_calibration parse_fit_reply(const std::string& reply) {
  const std::vector<std::string> tokens = tokenize(reply);
  if (tokens.size() < 2 || tokens[0] != "ok" || tokens[1] != "fit")
    bad_reply(reply);
  const auto number = [&](std::string_view key) {
    return reply_number<double>(reply_field(tokens, key, reply), reply);
  };
  scenario_calibration cal;
  cal.fit.params.d = number("d");
  cal.fit.params.k = number("k");
  cal.fit_a = number("a");
  cal.fit_b = number("b");
  cal.fit_c = number("c");
  cal.fit.sse = number("sse");
  cal.fit.evaluations =
      reply_number<std::size_t>(reply_field(tokens, "evals", reply), reply);
  cal.resolved_rate = std::string(reply_field(tokens, "rate", reply));
  if (const std::string_view m = reply_field(tokens, "m", reply); m != "-")
    for (const std::string& piece : split_keep_empty(m, ','))
      cal.multipliers.push_back(reply_number<double>(piece, reply));
  return cal;
}

/// The request tail shared by solve and calibrate: the axes the model
/// consumes, spelled exactly as run_sweep's cache keys and CSV spell
/// them.
std::string request_tail(const scenario& sc, const dataset_slice& slice,
                         const diffusion_model& model) {
  std::string req = " model=" + sc.model + " slice=" + slice.name;
  if (model.uses_scheme()) {
    req += " scheme=" + core::to_string(sc.scheme);
    req += " dt=" + format_full_precision(sc.dt);
  }
  if (model.uses_grid()) req += " grid=" + std::to_string(sc.points_per_unit);
  req += " t0=" + format_full_precision(sc.t0) +
         " t_end=" + format_full_precision(sc.t_end) +
         " seed=" + std::to_string(sc.seed);
  if (model.supports_domain() && !make_domain(sc.domain).is_line())
    req += " domain=" + sc.domain;
  return req;
}

/// The connections one remote_registry's models share.  Idle clients
/// wait here between requests: a request takes one (or connects when
/// none is idle) and hands it back after the reply, so the pool never
/// holds more connections than requests ever ran at once.
class remote_link {
 public:
  remote_link(std::string socket_path, remote_options options)
      : socket_path_(std::move(socket_path)), options_(options) {}

  /// One round-trip.  Connection-level failures reconnect and retry with
  /// backoff per remote_options; the final one propagates.
  std::string request(const std::string& payload) {
    std::unique_ptr<service_client> client;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        client = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    double backoff = options_.backoff_initial_ms;
    for (std::size_t attempt = 0;;) {
      const bool reused = client != nullptr;
      try {
        if (!reused) client = std::make_unique<service_client>(socket_path_);
        std::string reply = client->request(payload);
        const std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(std::move(client));
        return reply;
      } catch (const std::exception& e) {
        client.reset();  // the connection is suspect: reconnect next try
        // A pooled connection may have idled past the server's I/O
        // timeout and been closed: that is stale, not a failure, so it
        // reconnects at once without spending a retry.
        if (reused) continue;
        if (attempt++ >= options_.retries) throw;
        std::fprintf(stderr,
                     "remote_registry: %s; retrying in %.0f ms "
                     "(attempt %zu of %zu)\n",
                     e.what(), backoff, attempt, options_.retries + 1);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
        backoff *= options_.backoff_multiplier;
      }
    }
  }

 private:
  std::string socket_path_;
  remote_options options_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<service_client>> idle_;
};

/// A model whose solves and fits run on the server; everything else is
/// the wrapped local model's answer.
class remote_model final : public diffusion_model {
 public:
  remote_model(std::unique_ptr<diffusion_model> local,
               std::shared_ptr<remote_link> link)
      : local_(std::move(local)), link_(std::move(link)) {}

  std::string name() const override { return local_->name(); }
  bool uses_scheme() const override { return local_->uses_scheme(); }
  bool uses_grid() const override { return local_->uses_grid(); }
  bool uses_rate() const override { return local_->uses_rate(); }
  bool supports_spatial_rate() const override {
    return local_->supports_spatial_rate();
  }
  bool supports_calibration() const override {
    return local_->supports_calibration();
  }
  bool supports_domain() const override { return local_->supports_domain(); }
  bool supports_batch() const override { return local_->supports_batch(); }

  model_trace solve(const scenario& sc,
                    const dataset_slice& slice) const override {
    std::string req = "solve" + request_tail(sc, slice, *local_);
    if (local_->uses_rate()) {
      req += " rate=" + sc.rate;
      if (sc.d_override)
        req += " d=" + format_full_precision(*sc.d_override);
      if (sc.k_override)
        req += " k=" + format_full_precision(*sc.k_override);
    }
    return parse_trace_reply(ok_reply(req));
  }

  /// One wire "calibrate" per scenario; the server fits each.
  std::vector<scenario_calibration> calibrate_batch(
      std::span<const scenario> scenarios,
      std::span<const dataset_slice* const> slices,
      const fit::calibration_options&, solve_cache*, thread_pool*,
      std::size_t) const override {
    std::vector<scenario_calibration> fits;
    fits.reserve(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      fits.push_back(parse_fit_reply(
          ok_reply("calibrate rate=" + scenarios[i].rate +
                   request_tail(scenarios[i], *slices[i], *local_))));
    return fits;
  }

 private:
  /// The reply to `req`; an "err" reply throws with its text.
  std::string ok_reply(const std::string& req) const {
    std::string reply = link_->request(req);
    if (reply.starts_with("err")) throw std::runtime_error(reply);
    return reply;
  }

  std::unique_ptr<diffusion_model> local_;
  std::shared_ptr<remote_link> link_;
};

}  // namespace

// ----------------------------------------------------------------- frames

frame_status read_frame(int fd, std::string& payload,
                        std::size_t max_frame_bytes) {
  unsigned char header[4];
  if (!read_exact(fd, header, sizeof(header))) return frame_status::closed;
  const std::uint32_t length =
      static_cast<std::uint32_t>(header[0]) |
      (static_cast<std::uint32_t>(header[1]) << 8) |
      (static_cast<std::uint32_t>(header[2]) << 16) |
      (static_cast<std::uint32_t>(header[3]) << 24);
  if (length > max_frame_bytes) {
    // Drain the declared payload so the next frame starts on a frame
    // boundary: the oversized request is rejected, the stream survives.
    char sink[4096];
    std::uint64_t left = length;
    while (left > 0) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, sizeof(sink)));
      if (!read_exact(fd, sink, chunk)) return frame_status::closed;
      left -= chunk;
    }
    return frame_status::oversized;
  }
  payload.resize(length);
  if (length > 0 && !read_exact(fd, payload.data(), length))
    return frame_status::closed;
  return frame_status::ok;
}

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("dl_service: frame payload exceeds u32 range");
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(length & 0xFF),
      static_cast<unsigned char>((length >> 8) & 0xFF),
      static_cast<unsigned char>((length >> 16) & 0xFF),
      static_cast<unsigned char>((length >> 24) & 0xFF)};
  write_all(fd, header, sizeof(header));
  if (!payload.empty()) write_all(fd, payload.data(), payload.size());
}

// ----------------------------------------------------------------- client

service_client::service_client(const std::string& socket_path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("service_client: socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("service_client: socket path too long: " +
                             socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno(("service_client: connect to '" + socket_path + "'").c_str());
  }
}

service_client::~service_client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string service_client::request(std::string_view payload) {
  write_frame(fd_, payload);
  std::string reply;
  const frame_status status = read_frame(
      fd_, reply, std::numeric_limits<std::uint32_t>::max());
  if (status != frame_status::ok)
    throw std::runtime_error(
        "service_client: server closed the connection before responding");
  return reply;
}

model_registry remote_registry(const std::string& socket_path,
                               const remote_options& remote,
                               const model_registry& base) {
  auto link = std::make_shared<remote_link>(socket_path, remote);
  auto local = std::make_shared<const model_registry>(base);
  model_registry registry;
  for (const std::string& name : local->names())
    registry.register_model(name, [name, link, local] {
      return std::make_unique<remote_model>(local->make(name), link);
    });
  return registry;
}

// ---------------------------------------------------------------- service

dl_service::dl_service(scenario_context context, service_options options)
    : context_(std::move(context)), options_(std::move(options)) {
  if (options_.socket_path.empty())
    throw std::invalid_argument("dl_service: socket_path is required");
  if (!(options_.io_timeout_sec >= 0.0 &&
        options_.io_timeout_sec <= kMaxIoTimeoutSec))
    throw std::invalid_argument(
        "dl_service: io_timeout_sec must lie in [0, 1e9] seconds");
  pool_ = std::make_unique<thread_pool>(options_.threads);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("dl_service: socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    throw std::runtime_error("dl_service: socket path too long: " +
                             options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  ::unlink(options_.socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno(("dl_service: bind '" + options_.socket_path + "'").c_str());
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("dl_service: listen");
  }
  // The cache comes up once the socket is bound, so a service that fails
  // to start never writes a cache file (persistent_cache saves on
  // destruction); no request is read before the accept thread starts.
  if (options_.cache_file.empty()) {
    memory_cache_.emplace(options_.cache_max_entries);
  } else {
    journal_options journal;
    journal.enabled = options_.journal;
    persistent_.emplace(options_.cache_file, options_.cache_max_entries,
                        journal);
    startup_load_ = persistent_->startup_load();
  }
  accept_thread_ = std::thread(&dl_service::accept_loop, this);
  lifecycle_thread_ = std::thread(&dl_service::lifecycle_loop, this);
}

dl_service::~dl_service() {
  stop();
  if (lifecycle_thread_.joinable()) lifecycle_thread_.join();
}

void dl_service::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down: the service is stopping
    }
    if (options_.io_timeout_sec > 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.io_timeout_sec);
      tv.tv_usec = static_cast<suseconds_t>(
          (options_.io_timeout_sec - static_cast<double>(tv.tv_sec)) * 1e6);
      // Best effort: a kernel that refuses the option leaves the
      // historical blocking behaviour.
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stop_requested_.load()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<connection>();
    conn->fd = fd;
    connection* raw = conn.get();
    conn->worker = std::thread([this, raw] { serve_connection(raw); });
    connections_.push_back(std::move(conn));
  }
}

void dl_service::serve_connection(connection* conn) {
  std::string payload;
  while (true) {
    frame_status status;
    try {
      status = read_frame(conn->fd, payload, options_.max_frame_bytes);
    } catch (...) {
      // Socket error or I/O timeout: drop the connection (a clean EOF
      // is frame_status::closed below and is not a drop).
      dropped_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (status == frame_status::closed) break;
    std::string reply;
    bool shutdown_after_reply = false;
    if (status == frame_status::oversized)
      reply = "err frame exceeds max_frame_bytes=" +
              std::to_string(options_.max_frame_bytes);
    else
      reply = handle_request(payload, shutdown_after_reply);
    try {
      write_frame(conn->fd, reply);
    } catch (...) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    // The shutdown verb's reply has flushed out; the lifecycle thread
    // now shuts this (and every) connection's read side down, so the
    // next read_frame sees EOF and the loop exits cleanly.
    if (shutdown_after_reply) request_stop();
  }
  const std::lock_guard<std::mutex> lock(conn_mutex_);
  ::close(conn->fd);
  conn->fd = -1;
}

std::string dl_service::handle_request(const std::string& payload,
                                       bool& shutdown_after_reply) {
  try {
    const std::vector<std::string> tokens = tokenize(payload);
    if (tokens.empty()) return "err empty request";
    const std::string& verb = tokens[0];

    if (verb == "ping" || verb == "health" || verb == "slices" ||
        verb == "stats" || verb == "flush" || verb == "shutdown") {
      if (tokens.size() > 1)
        return "err verb '" + verb + "' takes no arguments";
      if (verb == "ping") return "ok pong";
      if (verb == "health") {
        // Liveness for supervisors: a reply at all means the accept and
        // worker machinery is up; the journal state distinguishes
        // healthy from degraded-but-serving.
        const cache_journal* journal =
            persistent_ ? persistent_->journal() : nullptr;
        if (journal != nullptr && !journal->write_error().empty())
          return "ok degraded journal_error=" + journal->write_error();
        return "ok healthy";
      }
      if (verb == "slices") {
        std::string reply = "ok slices";
        for (const std::string& name : context_.slice_names())
          reply += ' ' + name;
        return reply;
      }
      if (verb == "stats") {
        const cache_stats stats = cache().stats();
        return "ok stats hits=" + std::to_string(stats.hits) +
               " misses=" + std::to_string(stats.misses) +
               " evictions=" + std::to_string(stats.evictions) +
               " load_rejected=" + std::to_string(stats.load_rejected) +
               " merged=" + std::to_string(stats.merged_entries) +
               " merge_conflicts=" + std::to_string(stats.merge_conflicts) +
               " entries=" + std::to_string(cache().size()) +
               " requests=" + std::to_string(requests_.load()) +
               " dropped=" + std::to_string(dropped_.load());
      }
      if (verb == "flush") {
        if (!persistent_) return "err no cache file configured";
        const std::lock_guard<std::mutex> lock(flush_mutex_);
        persistent_->flush();
        return "ok flushed " + std::to_string(cache().size()) +
               " entries to " + options_.cache_file;
      }
      shutdown_after_reply = true;
      return "ok shutting down";
    }

    if (verb != "solve" && verb != "predict" && verb != "calibrate")
      return "err unknown verb '" + verb +
             "' (ping, health, slices, stats, solve, predict, calibrate, "
             "flush, shutdown)";

    request_args args;
    if (std::string error = parse_request_args(tokens, args); !error.empty())
      return error;
    if (!args.have_model) return "err missing model=";
    if (!args.have_slice) return "err missing slice=";
    if (verb == "predict" && (!args.have_x || !args.have_t))
      return "err predict requires x= and t=";

    std::size_t slice_index = context_.slice_count();
    for (std::size_t i = 0; i < context_.slice_count(); ++i) {
      if (context_.slice(i).name == args.slice_name) {
        slice_index = i;
        break;
      }
    }
    if (slice_index == context_.slice_count())
      return "err unknown slice '" + args.slice_name + "'";
    args.sc.slice = slice_index;
    const dataset_slice& slice = context_.slice(slice_index);

    const model_registry& registry =
        options_.registry != nullptr ? *options_.registry : default_registry();
    const std::unique_ptr<diffusion_model> model = registry.make(args.sc.model);

    // Calibrate specs resolve exactly as in run_sweep: fit on the early
    // window (lattice fanned out over the resident pool, the fit's record
    // memoized in the resident cache), then solve the rewritten scenario.
    solve_cache& cache = this->cache();
    const prepared_solve prepared = prepare_solve(
        *model, args.sc, slice, options_.calibration, &cache, pool_.get());
    if (verb == "calibrate") {
      if (!prepared.calibration)
        return "err calibrate requires a calibrate rate spec (rate='" +
               args.sc.rate + "')";
      const scenario_calibration& cal = *prepared.calibration;
      return "ok fit d=" + format_full_precision(cal.fit.params.d) +
             " k=" + format_full_precision(cal.fit.params.k) +
             " a=" + format_full_precision(cal.fit_a) +
             " b=" + format_full_precision(cal.fit_b) +
             " c=" + format_full_precision(cal.fit_c) + " m=" +
             (cal.multipliers.empty() ? std::string("-")
                                      : join_full_precision(cal.multipliers)) +
             " sse=" + format_full_precision(cal.fit.sse) +
             " evals=" + std::to_string(cal.fit.evaluations) +
             " rate=" + cal.resolved_rate;
    }

    // Solve through the resident cache: a repeated request — from this
    // client or any other — is a pure lookup.
    const std::string key =
        scenario_cache_key(prepared.solved, slice, *model);
    std::shared_ptr<const model_trace> trace = cache.find_trace(key);
    if (trace == nullptr) {
      std::shared_ptr<const model_trace> stored =
          cache.store_trace(key, model->solve(prepared.solved, slice));
      // The re-find keeps the hit count the stats verb reports today.
      // Under an LRU cap a concurrent insert may already have evicted
      // the entry; the trace stored above answers then.
      trace = cache.find_trace(key);
      if (trace == nullptr) trace = std::move(stored);
    }

    if (verb == "solve") return format_trace(*trace);

    // predict: one cell of the trace.
    std::size_t row = trace->distances.size();
    for (std::size_t i = 0; i < trace->distances.size(); ++i)
      if (trace->distances[i] == args.x) row = i;
    std::size_t col = trace->times.size();
    for (std::size_t j = 0; j < trace->times.size(); ++j)
      if (std::fabs(trace->times[j] - args.t) < 1e-9) col = j;
    if (row == trace->distances.size() || col == trace->times.size())
      return "err predict (x=" + std::to_string(args.x) +
             ", t=" + format_full_precision(args.t) +
             ") is outside the evaluated trace";
    return "ok " + format_full_precision(trace->predicted[row][col]);
  } catch (const std::exception& e) {
    return std::string("err ") + e.what();
  }
}

void dl_service::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stop_requested_.load()) return;
    stop_requested_.store(true);
  }
  stop_cv_.notify_all();
}

void dl_service::lifecycle_loop() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_.load(); });
  }
  do_stop();
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_ = true;
  }
  stop_cv_.notify_all();
}

void dl_service::do_stop() {
  // Break the accept loop first: no new connections from here on.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Shut the read side of every live connection: a blocked read_frame
  // sees EOF and its loop exits, while a response in flight still
  // writes out (only reads are shut down) — an in-flight request
  // finishes and answers before the connection closes.
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const std::unique_ptr<connection>& conn : connections_)
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
  // Safe outside the lock: the accept thread is joined, so nothing
  // appends to connections_ anymore.
  for (const std::unique_ptr<connection>& conn : connections_)
    if (conn->worker.joinable()) conn->worker.join();

  ::unlink(options_.socket_path.c_str());

  // Every request has drained: the final flush of the warm cache (a
  // journal checkpoint when journaling, so the WAL resets alongside).
  if (persistent_) {
    const std::lock_guard<std::mutex> lock(flush_mutex_);
    try {
      persistent_->close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dl_service: cache flush to '%s' failed: %s\n",
                   options_.cache_file.c_str(), e.what());
    }
  }
}

void dl_service::stop() {
  request_stop();
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stopped_; });
}

bool dl_service::stopped() const {
  const std::lock_guard<std::mutex> lock(stop_mutex_);
  return stopped_;
}

}  // namespace dlm::engine
