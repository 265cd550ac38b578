#include "serve_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graph/io.h"
#include "host.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {

using ihtl::Edge;
using ihtl::Graph;
using ihtl::vid_t;
using ihtl::serve::GraphSession;
using ihtl::serve::QueryOp;
using ihtl::serve::QueryRequest;
using ihtl::serve::Server;
using ihtl::telemetry::JsonValue;

namespace {

/// Reference answers must match the server's within this (max |Δ|); the
/// engine and the reference differ only in summation order.
constexpr double kPprTolerance = 1e-12;
/// Any loop still waiting this long past its schedule has stalled.
constexpr std::int64_t kStallNs = 60'000'000'000;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& s) {
  return static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53;
}

/// Seeded traffic. Independent streams for sources, update edges and
/// arrival gaps, so the k-th read, update or gap is fixed by the seed
/// whatever the interleaving.
class Traffic {
 public:
  Traffic(vid_t n, std::uint64_t seed)
      : n_(n),
        src_(seed ^ 0x5eed0001ULL),
        upd_(seed ^ 0x5eed0002ULL),
        gap_(seed ^ 0x5eed0003ULL) {
    // 1024 candidate sources; popularity of the i-th is ∝ 1/(i+1).
    const std::size_t k = std::min<std::size_t>(1024, n);
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      candidates_.push_back(static_cast<vid_t>(splitmix(src_) % n));
      acc += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
    inserts_.emplace_back();  // epoch 0: the base graph
  }

  vid_t next_source() {
    const double u = unit(src_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return candidates_[std::min<std::size_t>(it - cdf_.begin(),
                                             candidates_.size() - 1)];
  }

  /// Paced gap: uniform in [0.5, 1.5] times the mean 1/rate, in ns.
  std::int64_t next_gap_ns(double rate) {
    return static_cast<std::int64_t>((0.5 + unit(gap_)) / rate * 1e9);
  }

  /// Edges inserted by update `e` (1-based); update e also removes the
  /// edges update e-1 inserted, so the graph at epoch e is the base graph
  /// plus inserts(e).
  const std::vector<Edge>& inserts(std::size_t e) {
    while (inserts_.size() <= e) {
      std::vector<Edge> batch;
      for (int i = 0; i < kEdgesPerUpdate; ++i) {
        const auto u = static_cast<vid_t>(splitmix(upd_) % n_);
        const auto v = static_cast<vid_t>(splitmix(upd_) % n_);
        batch.push_back({u, v});
      }
      inserts_.push_back(std::move(batch));
    }
    return inserts_[e];
  }

 private:
  vid_t n_;
  std::uint64_t src_, upd_, gap_;
  std::vector<vid_t> candidates_;
  std::vector<double> cdf_;
  std::vector<std::vector<Edge>> inserts_;
};

std::string ppr_request(vid_t source, bool use_cache = true) {
  QueryRequest req;
  req.op = QueryOp::ppr;
  req.sources = {source};
  req.iterations = kPprIterations;
  req.damping = kPprDamping;
  req.use_cache = use_cache;
  return ihtl::serve::request_to_json(req).dump(0);
}

/// The fields of a ppr response the load loop checks, found without
/// parsing the whole (large) values array.
struct ReadReply {
  bool ok = false;
  std::uint64_t epoch = 0;
  bool cached = false;
  std::size_t count = 0;
  /// About 64 values at fixed positions: enough to tell two answers apart.
  std::vector<double> fingerprint;
};

/// `p` must be followed by a NUL or a non-numeric byte (std::string data).
ReadReply parse_read_reply(std::string_view p) {
  ReadReply r;
  const std::size_t pos = p.find("\"values\":[");
  const std::size_t close = p.rfind(']');
  if (pos == std::string_view::npos || close == std::string_view::npos ||
      close < pos) {
    return r;
  }
  const std::string_view header = p.substr(0, pos);
  r.ok = header.find("\"ok\":true") != std::string_view::npos;
  r.cached = header.find("\"cached\":true") != std::string_view::npos;
  const std::size_t e = header.find("\"epoch\":");
  if (e == std::string_view::npos) r.ok = false;
  else r.epoch = std::strtoull(header.data() + e + 8, nullptr, 10);
  if (close <= pos + 10) return r;
  // One pass over the separators counts the values; strtod stops at the
  // ',' or ']' after each sampled one.
  const char* v = p.data() + pos + 10;
  const char* const end = p.data() + close + 1;
  for (std::size_t i = 0;; ++i) {
    if (i % 512 == 0) r.fingerprint.push_back(std::strtod(v, nullptr));
    const void* comma = std::memchr(v, ',', static_cast<std::size_t>(end - v));
    if (!comma) {
      r.count = i + 1;
      break;
    }
    v = static_cast<const char*>(comma) + 1;
  }
  return r;
}

/// Every value of a ppr response, by a full parse (off the timed path).
std::vector<double> response_values(const std::string& payload) {
  const JsonValue doc = JsonValue::parse(payload);
  std::vector<double> out;
  const JsonValue* values = doc.find("values");
  if (!values || !values->is_array()) return out;
  for (const JsonValue& v : values->items()) out.push_back(v.as_number());
  return out;
}

/// Personalized PageRank written from the definition, independent of the
/// engine: the base graph's CSC plus the epoch's inserted edges, pulled
/// serially in original IDs.
std::vector<double> reference_ppr(const Graph& g, const std::vector<Edge>& extra,
                                  vid_t source) {
  const vid_t n = g.num_vertices();
  std::vector<double> deg(n), pr(n, 0.0), x(n), y(n);
  for (vid_t u = 0; u < n; ++u) deg[u] = static_cast<double>(g.out_degree(u));
  for (const Edge& e : extra) deg[e.src] += 1.0;
  pr[source] = 1.0;
  for (unsigned it = 0; it < kPprIterations; ++it) {
    for (vid_t u = 0; u < n; ++u) {
      x[u] = deg[u] > 0 ? pr[u] * (kPprDamping / deg[u]) : 0.0;
    }
    for (vid_t v = 0; v < n; ++v) {
      double acc = 0.0;
      for (const vid_t u : g.in().neighbors(v)) acc += x[u];
      y[v] = acc;
    }
    for (const Edge& e : extra) y[e.dst] += x[e.src];
    for (vid_t v = 0; v < n; ++v) pr[v] = y[v];
    pr[source] += 1.0 - kPprDamping;
  }
  return pr;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to the server failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One blocking round trip on a fresh connection (set-up and checks only).
std::string roundtrip(std::uint16_t port, const std::string& payload) {
  ihtl::serve::Client c;
  c.connect("127.0.0.1", port);
  return c.roundtrip(JsonValue::parse(payload)).dump(0);
}

struct Pending {
  bool update = false;
  vid_t source = 0;
  std::size_t update_index = 0;  ///< 1-based, updates only
  std::size_t arrival = 0;       ///< open-loop index
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  bool sample = false;
};

struct Conn {
  int fd = -1;
  std::string buf;
  std::deque<Pending> inflight;
  std::uint64_t last_epoch = 0;
};

/// A sampled answer: labelled `epoch`, computed at an epoch in [epoch, hi].
struct Sample {
  vid_t source;
  std::uint64_t epoch;
  std::uint64_t hi;
  std::string response;
};

/// One client thread multiplexing a few connections with poll(). Updates
/// always travel on connection 0, so they apply in the order they were
/// generated and update e's epoch is exactly e.
class LoadClient {
 public:
  LoadClient(std::uint16_t port, std::size_t conns, vid_t n, Traffic& traffic,
             std::uint64_t seed, Checks& checks, SpanLog& log)
      : n_(n), traffic_(traffic), seed_(seed), checks_(checks), log_(log) {
    for (std::size_t i = 0; i < std::max<std::size_t>(conns, 1); ++i) {
      Conn c;
      c.fd = connect_loopback(port);
      conns_.push_back(std::move(c));
    }
  }
  ~LoadClient() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Every connection keeps one request outstanding until `requests` have
  /// gone out, then the loop drains. Returns the throughput: reads
  /// completed over the time until the last of them completed.
  double closed_loop(std::size_t requests) {
    const std::int64_t t0 = now_ns();
    std::size_t sent = 0;
    auto next = [&](std::size_t ci) {
      if (sent < requests) {
        ++sent;
        send_next_closed(ci);
      }
    };
    std::uint64_t reads = 0;
    std::int64_t last_read_ns = t0;
    on_done_ = [&](std::size_t ci, const Pending& p, std::int64_t done,
                   bool ok) {
      log_.add(p.update ? "serve.request.update" : "serve.request.ppr",
               p.sent_ns, done);
      if (!p.update && ok) {
        ++reads;
        last_read_ns = done;
      }
      next(ci);
    };
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) next(ci);
    // Responses wake the poll; the timeout only bounds an idle wait.
    while (outstanding() > 0 && now_ns() < t0 + kStallNs) {
      pump(now_ns() + 100'000'000);
    }
    abandon_outstanding("closed loop stalled");
    on_done_ = nullptr;
    if (last_read_ns == t0) return 0.0;
    return static_cast<double>(reads) /
           (static_cast<double>(last_read_ns - t0) * 1e-9);
  }

  /// `arrivals` requests on a seeded paced schedule: reads at `rate` per
  /// second plus one update after every kReadsPerUpdate reads (counted
  /// across segments). Each is timed from when it was due; sent - due is
  /// the generator's lag. Results accumulate until export_open_loop().
  void open_loop(double rate, std::size_t arrivals) {
    const double total_rate =
        rate * (kReadsPerUpdate + 1.0) / static_cast<double>(kReadsPerUpdate);
    std::vector<std::int64_t> due(arrivals);
    std::int64_t at = 0;
    for (std::size_t i = 0; i < arrivals; ++i) {
      at += traffic_.next_gap_ns(total_rate);
      due[i] = at;
    }
    const std::size_t base = ol_due_ms_.size();
    ol_sent_ms_.resize(base + arrivals, -1.0);
    ol_done_ms_.resize(base + arrivals, -1.0);
    const std::int64_t start = now_ns() + 5'000'000;
    for (std::size_t i = 0; i < arrivals; ++i) {
      ol_due_ms_.push_back(static_cast<double>(due[i]) * 1e-6);
      ol_kind_.push_back(
          (base + i) % (kReadsPerUpdate + 1) == kReadsPerUpdate ? 1.0 : 0.0);
    }
    on_done_ = [&](std::size_t, const Pending& p, std::int64_t done, bool ok) {
      if (ok) ol_done_ms_[p.arrival] = static_cast<double>(done - start) * 1e-6;
      log_.add(p.update ? "serve.request.update" : "serve.request.ppr",
               p.due_ns, done);
    };
    std::size_t next = 0;
    const std::int64_t give_up =
        start + (arrivals ? due.back() : 0) + kStallNs;
    while ((next < arrivals || outstanding() > 0) && now_ns() < give_up) {
      const std::int64_t now = now_ns();
      while (next < arrivals && start + due[next] <= now) {
        Pending p;
        p.arrival = base + next;
        p.due_ns = start + due[next];
        p.update = ol_kind_[base + next] != 0.0;
        const std::size_t ci = p.update ? 0 : least_loaded();
        ol_sent_ms_[base + next] =
            static_cast<double>(send(ci, p) - start) * 1e-6;
        ++next;
      }
      pump(next < arrivals ? start + due[next] : give_up);
    }
    abandon_outstanding("open loop stalled");
    on_done_ = nullptr;
  }

  /// Every open-loop request so far: kind (1 = update) and its due, sent
  /// and done times in ms from its segment's start (done < 0: failed).
  void export_open_loop(double rate, Record& rec) const {
    auto arr = [](const std::vector<double>& v) {
      JsonValue a = JsonValue::array();
      for (const double x : v) a.push_back(x);
      return a;
    };
    JsonValue ol = JsonValue::object();
    ol.set("rate_qps", rate);
    ol.set("kind", arr(ol_kind_));
    ol.set("due_ms", arr(ol_due_ms_));
    ol.set("sent_ms", arr(ol_sent_ms_));
    ol.set("done_ms", arr(ol_done_ms_));
    rec.extra.set("open_loop", std::move(ol));
  }

  std::uint64_t updates_sent() const { return updates_sent_; }
  std::uint64_t updates_rebuilt() const { return updates_rebuilt_; }
  std::uint64_t cache_pairs() const { return cache_pairs_; }
  std::uint64_t racing_reads() const { return racing_reads_; }
  std::vector<Sample>& samples() { return samples_; }

 private:
  std::size_t outstanding() const {
    std::size_t k = 0;
    for (const Conn& c : conns_) k += c.inflight.size();
    return k;
  }

  std::size_t least_loaded() const {
    std::size_t best = conns_.size() - 1;
    for (std::size_t ci = conns_.size(); ci-- > 0;) {
      if (conns_[ci].inflight.size() < conns_[best].inflight.size()) best = ci;
    }
    return best;
  }

  void send_next_closed(std::size_t ci) {
    Pending p;
    p.due_ns = now_ns();
    p.update = ci == 0 && reads_since_update_ >= kReadsPerUpdate;
    send(ci, p);
  }

  /// Sends `p` on connection `ci`; returns when it was sent.
  std::int64_t send(std::size_t ci, Pending p) {
    std::string payload;
    if (p.update) {
      p.update_index = ++updates_sent_;
      QueryRequest req;
      req.op = QueryOp::update;
      req.insert = traffic_.inserts(p.update_index);
      req.remove = traffic_.inserts(p.update_index - 1);
      payload = ihtl::serve::request_to_json(req).dump(0);
      reads_since_update_ = 0;
    } else {
      p.source = traffic_.next_source();
      ++reads_since_update_;
      std::uint64_t h = seed_ ^ (0xA5A5ULL + reads_sent_++);
      p.sample = samples_wanted_ > 0 && splitmix(h) % 16 == 0;
      if (p.sample) --samples_wanted_;
      payload = ppr_request(p.source);
    }
    ihtl::serve::write_frame(conns_[ci].fd, payload);
    p.sent_ns = now_ns();
    conns_[ci].inflight.push_back(p);
    return p.sent_ns;
  }

  /// Waits for input until `deadline_ns` at the latest and handles every
  /// response frame that completed.
  void pump(std::int64_t deadline_ns) {
    std::vector<pollfd> pfds;
    for (const Conn& c : conns_) pfds.push_back({c.fd, POLLIN, 0});
    const std::int64_t wait = std::max<std::int64_t>(0, deadline_ns - now_ns());
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) return;
    static thread_local std::vector<char> chunk(1u << 20);
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      if (!(pfds[ci].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns_[ci];
      const ssize_t r = ::recv(c.fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) {
        fail_connection(ci, "connection closed by the server");
        continue;
      }
      if (r < 0) continue;
      c.buf.append(chunk.data(), static_cast<std::size_t>(r));
      std::size_t off = 0;
      while (c.buf.size() - off >= 4) {
        const auto* h = reinterpret_cast<const unsigned char*>(c.buf.data() + off);
        const std::size_t len = (std::size_t{h[0]} << 24) |
                                (std::size_t{h[1]} << 16) |
                                (std::size_t{h[2]} << 8) | std::size_t{h[3]};
        if (c.buf.size() - off - 4 < len) break;
        const std::int64_t done = now_ns();
        if (c.inflight.empty()) {
          checks_.expect(false, "response with no request outstanding");
        } else {
          Pending p = c.inflight.front();
          c.inflight.pop_front();
          const bool ok =
              handle_reply(c, p, std::string_view(c.buf).substr(off + 4, len));
          if (on_done_) on_done_(ci, p, done, ok);
        }
        off += 4 + len;
      }
      c.buf.erase(0, off);
    }
  }

  bool handle_reply(Conn& c, const Pending& p, std::string_view payload) {
    if (p.update) {
      const JsonValue doc = JsonValue::parse(payload);
      const JsonValue* ok = doc.find("ok");
      const JsonValue* epoch = doc.find("epoch");
      const bool good = ok && ok->is_bool() && ok->as_bool() && epoch &&
                        static_cast<std::uint64_t>(epoch->as_number()) ==
                            p.update_index;
      checks_.expect(good, "update " + std::to_string(p.update_index) +
                               " not applied at its epoch: " +
                               std::string(payload.substr(0, 200)));
      if (good) {
        c.last_epoch = std::max<std::uint64_t>(c.last_epoch, p.update_index);
        const JsonValue* rebuilt = doc.find("rebuilt");
        if (rebuilt && rebuilt->is_bool() && rebuilt->as_bool()) {
          ++updates_rebuilt_;
        }
      }
      return good;
    }
    const ReadReply r = parse_read_reply(payload);
    const bool good = r.ok && r.count == n_ && r.epoch >= c.last_epoch &&
                      r.epoch <= updates_sent_;
    checks_.expect(good, "ppr source " + std::to_string(p.source) +
                             ": ok=" + std::to_string(r.ok) + " n=" +
                             std::to_string(r.count) + " epoch " +
                             std::to_string(r.epoch) + " after " +
                             std::to_string(c.last_epoch));
    if (!good) return false;
    c.last_epoch = r.epoch;
    // The label is the epoch the server read at admission. An update the
    // batcher runs first makes the answer fresher than its label, never
    // staler (ARCHITECTURE.md, "Streaming updates: the epoch lifecycle"),
    // so it was computed at some epoch in [label, hi]: no later update had
    // been sent when it arrived.
    const std::uint64_t hi = updates_sent_;
    if (hi > r.epoch) ++racing_reads_;
    // Equal (source, epoch) must give equal values, cached or not. Only an
    // answer whose epoch is exact is kept for comparison. An answer fails
    // when every epoch it may have been computed at kept a different one.
    bool compared = false, consistent = false;
    double best = std::numeric_limits<double>::infinity();
    for (std::uint64_t e = r.epoch; e <= hi; ++e) {
      const auto it = seen_.find((std::uint64_t{p.source} << 32) | e);
      if (it == seen_.end()) {
        consistent = true;
        continue;
      }
      compared = true;
      const double d = max_abs_diff(it->second.first, r.fingerprint);
      best = std::min(best, d);
      if (d > kPprTolerance) continue;
      consistent = true;
      if (e == r.epoch && it->second.second != r.cached) ++cache_pairs_;
    }
    if (compared) {
      checks_.expect(consistent,
                     "ppr source " + std::to_string(p.source) + " epoch " +
                         std::to_string(r.epoch) + ".." + std::to_string(hi) +
                         ": answers differ between requests by " + sci(best));
    }
    if (!compared && hi == r.epoch) {
      seen_.emplace((std::uint64_t{p.source} << 32) | r.epoch,
                    std::make_pair(r.fingerprint, r.cached));
    }
    if (p.sample) {
      samples_.push_back({p.source, r.epoch, hi, std::string(payload)});
    }
    return true;
  }

  void fail_connection(std::size_t ci, const char* why) {
    Conn& c = conns_[ci];
    while (!c.inflight.empty()) {
      checks_.expect(false, why);
      const Pending p = c.inflight.front();
      c.inflight.pop_front();
      if (on_done_) on_done_(ci, p, now_ns(), false);
    }
  }

  void abandon_outstanding(const char* why) {
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      if (!conns_[ci].inflight.empty()) {
        fail_connection(ci, why);
        // The stream position is unknown now; stop using the connection.
        ::shutdown(conns_[ci].fd, SHUT_RDWR);
      }
    }
  }

  vid_t n_;
  Traffic& traffic_;
  std::uint64_t seed_;
  Checks& checks_;
  SpanLog& log_;
  std::vector<Conn> conns_;
  std::function<void(std::size_t, const Pending&, std::int64_t, bool)> on_done_;
  std::uint64_t updates_sent_ = 0;
  std::uint64_t updates_rebuilt_ = 0;
  std::uint64_t reads_sent_ = 0;
  int reads_since_update_ = 0;
  int samples_wanted_ = 12;
  std::uint64_t cache_pairs_ = 0;
  std::uint64_t racing_reads_ = 0;
  std::unordered_map<std::uint64_t, std::pair<std::vector<double>, bool>> seen_;
  std::vector<Sample> samples_;
  std::vector<double> ol_kind_, ol_due_ms_, ol_sent_ms_, ol_done_ms_;
};

double phase_ms(const Server& server, QueryOp op, const char* phase, double p) {
  for (std::size_t i = 0; i < ihtl::serve::RequestPhaseStats::kNumPhases; ++i) {
    if (std::string_view(ihtl::serve::RequestPhaseStats::phase_name(i)) == phase) {
      return server.phase_stats().histogram(op, i).percentile_us(p) * 1e-3;
    }
  }
  throw std::logic_error(std::string("no request phase ") + phase);
}

/// A running serve stack: the session and its server on an ephemeral port.
struct Service {
  std::optional<GraphSession> session;
  std::optional<Server> server;
};

/// The timed serve set-up: load the graph file, build the GraphSession
/// (which preprocesses), start the Server and complete one round trip.
/// Returns the set-up seconds.
double start_service(const std::string& path, std::size_t threads,
                     SpanLog& log, Service& svc) {
  const std::int64_t t0 = now_ns();
  ihtl::serve::SessionOptions so;
  so.threads = threads;
  {
    Span s(log, "graph.load_graph_binary");
    Graph g = ihtl::load_graph_binary(path);
    Span s2(log, "serve.GraphSession");
    svc.session.emplace(std::move(g), so);
  }
  {
    Span s(log, "serve.Server");
    svc.server.emplace(*svc.session, ihtl::serve::ServerOptions{});
    roundtrip(svc.server->port(), "{\"op\":\"stats\"}");
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

double serve_setup_once(const std::string& path, std::size_t threads) {
  SpanLog untraced;
  Service svc;
  const double s = start_service(path, threads, untraced, svc);
  svc.server->stop();
  return s;
}

void serve_traffic(const std::string& path, const Workload& w,
                   std::uint64_t seed, std::size_t threads,
                   const ServePlan& plan, SpanLog& log, Checks& checks,
                   Record& rec) {
  const Graph base = ihtl::load_graph_binary(path);
  const vid_t n = base.num_vertices();
  Traffic traffic(n, seed);

  Service svc;
  rec.values["serve.setup_s"] = start_service(path, threads, log, svc);
  rec.extra.set("serve_graph", graph_facts(base, svc.session->ihtl_graph()));
  Server& server = *svc.server;

  std::vector<Sample> samples;
  {
    LoadClient client(server.port(), threads, n, traffic, seed, checks, log);
    for (int seg = 0; seg < plan.segments; ++seg) {
      const CpuTicks c = read_cpu_ticks();
      if (plan.between) plan.between(seg);
      {
        // The first requests after an idle spell pay for evicted caches
        // and cold connection buffers, which a busy daemon does not.
        Span s(log, "bench.warmup");
        client.closed_loop(plan.warmup_requests);
      }
      {
        Span s(log, "bench.closed_loop");
        rec.sample("closed.qps", client.closed_loop(plan.closed_requests));
      }
      {
        Span s(log, "bench.open_loop");
        client.open_loop(w.open_rate_qps, plan.open_arrivals);
      }
      rec.sample("segment.steal", steal_share(c, read_cpu_ticks()));
    }
    // What tracing costs the serving path: per-request spans on and off,
    // alternating which goes first; a pair is (seconds per read on, off).
    // Only traced runs ask for pairs, so the log ends enabled.
    for (int i = 0; i < plan.overhead_pairs; ++i) {
      double qps[2] = {0.0, 0.0};  // [log on, log off]
      for (const bool on : {i % 2 == 0, i % 2 != 0}) {
        log.set_enabled(on);
        qps[on ? 0 : 1] = client.closed_loop(plan.closed_requests);
      }
      log.set_enabled(true);
      if (qps[0] > 0 && qps[1] > 0) {
        rec.pair("trace_overhead", 1.0 / qps[0], 1.0 / qps[1]);
      }
    }
    client.export_open_loop(w.open_rate_qps, rec);
    rec.values["update.acked"] = static_cast<double>(client.updates_sent());
    rec.values["update.rebuilt"] = static_cast<double>(client.updates_rebuilt());
    rec.values["cache.pairs_compared"] = static_cast<double>(client.cache_pairs());
    rec.values["reads.racing_update"] = static_cast<double>(client.racing_reads());
    samples = std::move(client.samples());

    // Cached and uncached answers at the final epoch must agree.
    for (int i = 0; i < 2; ++i) {
      const vid_t s = traffic.next_source();
      const std::string first = roundtrip(server.port(), ppr_request(s));
      const std::string again = roundtrip(server.port(), ppr_request(s));
      const std::string fresh = roundtrip(server.port(), ppr_request(s, false));
      const ReadReply a = parse_read_reply(first), b = parse_read_reply(again),
                      c = parse_read_reply(fresh);
      const std::vector<double> va = response_values(first),
                                vb = response_values(again),
                                vc = response_values(fresh);
      const double d = max_abs_diff(va, vc);
      checks.expect(a.ok && b.ok && c.ok && b.cached && !c.cached &&
                        a.epoch == c.epoch && va == vb && d <= kPprTolerance,
                    "cached and uncached answers differ for source " +
                        std::to_string(s) + " by " + sci(d));
      if (c.ok) samples.push_back({s, c.epoch, c.epoch, fresh});
    }
  }

  if (plan.layers) {
    for (const char* phase : {"queue", "compute", "cache", "serialize"}) {
      rec.values[std::string("serve.") + phase + "_p50_ms"] =
          phase_ms(server, QueryOp::ppr, phase, 50);
      rec.values[std::string("serve.") + phase + "_p90_ms"] =
          phase_ms(server, QueryOp::ppr, phase, 90);
    }
    rec.values["update.apply_ms"] =
        phase_ms(server, QueryOp::update, "compute", 50);
    const JsonValue stats =
        JsonValue::parse(roundtrip(server.port(), "{\"op\":\"stats\"}"));
    const JsonValue* gauges = stats.find("stats") ? stats.find("stats")->find("gauges") : nullptr;
    auto gauge = [&](const char* name) {
      const JsonValue* v = gauges ? gauges->find(name) : nullptr;
      checks.expect(v && v->is_number(), std::string("stats op lacks ") + name);
      return v && v->is_number() ? v->as_number() : 0.0;
    };
    rec.values["batcher.lane_occupancy"] = gauge("serve.batch.lane_occupancy");
    rec.values["batcher.full_flushes"] = gauge("serve.batch.full_flushes");
    rec.values["batcher.deadline_flushes"] = gauge("serve.batch.deadline_flushes");
    rec.values["cache.hit_ratio"] = gauge("serve.cache.hit_rate");
  }
  server.stop();

  if (plan.layers) {
    // Direct batched PPR on the session, now that the server's dispatch
    // thread is gone (the session's compute methods take one caller).
    std::vector<vid_t> sources;
    for (int i = 0; i < 8; ++i) sources.push_back(traffic.next_source());
    for (int rep = 0; rep < 7; ++rep) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
        const std::int64_t t = now_ns();
        {
          Span s(log, "serve.GraphSession::ppr_batch");
          svc.session->ppr_batch(std::span<const vid_t>(sources.data(), k),
                                 kPprIterations, kPprDamping);
        }
        rec.sample(k == 1 ? "session.ppr_k1_ms" : "session.ppr_k8_ms",
                   static_cast<double>(now_ns() - t) * 1e-6);
      }
    }
  }
  svc.server.reset();
  svc.session.reset();

  // Sampled answers against the independent reference: each must match it
  // at its label or at a later epoch it may have been computed at.
  std::size_t fresher = 0;
  for (const Sample& s : samples) {
    const std::vector<double> got = response_values(s.response);
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t at = s.epoch;
    for (std::uint64_t e = s.epoch; e <= s.hi && best > kPprTolerance; ++e) {
      const double d = max_abs_diff(
          got, reference_ppr(base, traffic.inserts(e), s.source));
      if (d < best) {
        best = d;
        at = e;
      }
    }
    if (best <= kPprTolerance && at > s.epoch) ++fresher;
    checks.expect(best <= kPprTolerance,
                  "ppr source " + std::to_string(s.source) + " at epoch " +
                      std::to_string(s.epoch) + ".." + std::to_string(s.hi) +
                      " differs from the reference by " + sci(best));
  }
  rec.values["reference.samples"] = static_cast<double>(samples.size());
  rec.values["reference.fresher_than_label"] = static_cast<double>(fresher);
}

}  // namespace perfbench
