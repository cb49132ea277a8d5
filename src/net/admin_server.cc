#include "src/net/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>

#include "src/common/json.h"
#include "src/engines/digest_engine.h"

namespace delos {

namespace {

constexpr char kTextType[] = "text/plain; charset=utf-8";

AdminResponse NotFound(const std::string& path) {
  return AdminResponse{404, kTextType, "no route: " + path + "\n"};
}

AdminResponse Text(std::string body) { return AdminResponse{200, kTextType, std::move(body)}; }

AdminResponse Json(const std::string& body) {
  return AdminResponse{200, "application/json", body + "\n"};
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

// Parses "/slow/<id>"-style suffixes. Returns false unless the whole suffix
// is a decimal trace id.
bool ParseTraceId(const std::string& id_str, uint64_t* id) {
  char* end = nullptr;
  *id = std::strtoull(id_str.c_str(), &end, 10);
  return end != id_str.c_str() && *end == '\0';
}

// The optional planes: each returns its 404 body while the plane is off.
const char* NoTracing(ClusterServer& server) {
  return server.tracer() == nullptr ? "tracing is not enabled" : nullptr;
}
const char* NoLatency(ClusterServer& server) {
  return server.latency() == nullptr ? "latency attribution is not enabled" : nullptr;
}
const char* NoWorkload(ClusterServer& server) {
  return server.workload() == nullptr ? "workload attribution is not enabled" : nullptr;
}
DigestEngine* Digest(ClusterServer& server) {
  return dynamic_cast<DigestEngine*>(server.FindEngine("digest"));
}
const char* NoDigest(ClusterServer& server) {
  return Digest(server) == nullptr ? "digest beacons are not enabled" : nullptr;
}

AdminResponse Healthz(ClusterServer& server, uint64_t) {
  // One watchdog pass per probe: the verdict is as fresh as the request,
  // whether or not the background cadence thread is running.
  const std::vector<HealthReport> reports = server.CollectHealth();
  AdminResponse response = Json(RenderHealthJson(reports));
  if (AggregateHealth(reports) == HealthState::kUnhealthy) {
    response.status = 503;
  }
  return response;
}

AdminResponse StatusTable(ClusterServer& server, uint64_t) {
  const std::vector<HealthReport> reports = server.CollectHealth();
  std::ostringstream out;
  out << "server " << server.id() << ": " << HealthStateName(AggregateHealth(reports)) << "\n";
  out << "  applied=" << server.base()->applied_position()
      << " durable=" << server.base()->durable_position()
      << " records=" << server.base()->apply_records()
      << " batches=" << server.base()->apply_batches() << "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-18s %-10s %s\n", "component", "state", "reason");
  out << line;
  for (const HealthReport& report : reports) {
    std::snprintf(line, sizeof(line), "  %-18s %-10s %s\n", report.component.c_str(),
                  HealthStateName(report.state),
                  report.reason.empty() ? "-" : report.reason.c_str());
    out << line;
  }
  return Text(out.str());
}

AdminResponse StatusJson(ClusterServer& server, uint64_t) {
  const std::vector<HealthReport> reports = server.CollectHealth();
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(server.id())
      .Key("aggregate").String(HealthStateName(AggregateHealth(reports)))
      .Key("applied_position").Int(server.base()->applied_position())
      .Key("durable_position").Int(server.base()->durable_position())
      .Key("apply_records").Int(server.base()->apply_records())
      .Key("apply_batches").Int(server.base()->apply_batches())
      .Key("components").Raw(RenderHealthJson(reports))
      .EndObject();
  return Json(json.Take());
}

AdminResponse StackJson(ClusterServer& server, uint64_t) {
  BaseEngine* base = server.base();
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(server.id())
      .Key("applied_position").Int(base->applied_position())
      .Key("durable_position").Int(base->durable_position())
      .Key("apply_records").Int(base->apply_records())
      .Key("apply_batches").Int(base->apply_batches())
      .Key("apply_busy_micros").Int(base->apply_busy_micros())
      .Key("stack").BeginArray();
  // Each layer's own apply / postApply time per applied record, from the
  // server's ApplyProfiler: a layer's inclusive time minus that of the layer
  // above it. The base's inclusive apply time is the apply thread's busy
  // time less the transaction and postApply; the top engine's figure
  // includes the app, which is not profiled.
  const std::vector<StackableEngine*> engines = server.engines();
  const ApplyProfiler& profiler = *server.profiler();
  const std::map<std::string, int64_t> inclusive = profiler.InclusiveMicros();
  const auto micros = [&](const std::string& label) {
    const auto it = inclusive.find(label);
    return it == inclusive.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<double> apply = {static_cast<double>(profiler.TotalBusyMicros()) -
                               micros("base.beginTX") - micros("base.commitTX") -
                               micros("postApply")};
  std::vector<double> post_apply = {micros("postApply")};
  for (StackableEngine* engine : engines) {
    apply.push_back(micros(engine->name() + ".apply"));
    post_apply.push_back(micros(engine->name() + ".postApply"));
  }
  apply.push_back(0);
  post_apply.push_back(0);
  const double records = static_cast<double>(std::max<int64_t>(1, profiler.TotalRecords()));
  const auto layer = [&](size_t i, const std::string& name, bool enabled,
                         const HealthReport& health) {
    json.BeginObject()
        .Key("name").String(name)
        .Key("enabled").Bool(enabled)
        .Key("health").String(HealthStateName(health.state))
        .Key("reason").String(health.reason)
        .Key("apply_us_per_record").Fixed((apply[i] - apply[i + 1]) / records, 3)
        .Key("postapply_us_per_record").Fixed((post_apply[i] - post_apply[i + 1]) / records, 3)
        .EndObject();
  };
  // Bottom-up, base first — the order entries flow on the apply path.
  layer(0, "base", true, base->HealthCheck());
  for (size_t i = 0; i < engines.size(); ++i) {
    layer(i + 1, engines[i]->name(), engines[i]->enabled(), engines[i]->HealthCheck());
  }
  json.EndArray().EndObject();
  return Json(json.Take());
}

AdminResponse SlowDetail(ClusterServer& server, uint64_t id, bool json) {
  LatencyAttributor* latency = server.latency();
  const std::optional<std::string> body =
      json ? latency->RenderSlowDetailJson(id) : latency->RenderSlowDetail(id);
  if (!body.has_value()) {
    return AdminResponse{404, kTextType, "no slow trace " + std::to_string(id) + "\n"};
  }
  return json ? Json(*body) : Text(*body);
}

}  // namespace

const std::vector<AdminReport>& AdminReports() {
  using S = ClusterServer;
  static const std::vector<AdminReport> reports = {
      {.path = "/status",
       .help = "per-engine health table",
       .text = StatusTable,
       .json = StatusJson},
      {.path = "/top",
       .help = "metric rates from the time-series ring",
       .text = [](S& s, uint64_t) { return Text(s.series()->RenderTable(10)); },
       .json = [](S& s, uint64_t) { return Json(s.series()->RenderJson(10)); }},
      {.path = "/top/keys",
       .help = "hot keys (workload attribution heavy hitters)",
       .absent = NoWorkload,
       .text = [](S& s, uint64_t) { return Text(s.workload()->RenderTopKeys()); },
       .json = [](S& s, uint64_t) { return Json(s.workload()->RenderTopKeysJson()); }},
      {.path = "/top/clients",
       .help = "top clients (workload attribution heavy hitters)",
       .absent = NoWorkload,
       .text = [](S& s, uint64_t) { return Text(s.workload()->RenderTopClients()); },
       .json = [](S& s, uint64_t) { return Json(s.workload()->RenderTopClientsJson()); }},
      {.path = "/series",
       .help = "the whole time-series ring",
       .json = [](S& s, uint64_t) { return Json(s.series()->RenderJson()); }},
      {.path = "/stack", .help = "engine stack + apply cursors", .json = StackJson},
      {.path = "/metrics",
       .help = "Prometheus exposition",
       .text =
           [](S& s, uint64_t) {
             return AdminResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                                  s.metrics()->RenderPrometheus()};
           },
       .json = [](S& s, uint64_t) { return Json(s.metrics()->RenderJson()); }},
      {.path = "/healthz", .help = "health report (exit 1 when UNHEALTHY)", .json = Healthz},
      {.path = "/flight",
       .help = "flight-recorder tail",
       .text = [](S& s, uint64_t) { return Text(s.flight_recorder()->Dump()); }},
      {.path = "/trace",
       .arg = "<id>",
       .help = "one end-to-end trace",
       .absent = NoTracing,
       .text = [](S& s, uint64_t id) { return Text(s.tracer()->Render(id)); }},
      {.path = "/latency",
       .help = "per-stage latency attribution + critical-path dominance",
       .absent = NoLatency,
       .text = [](S& s, uint64_t) { return Text(s.latency()->RenderLatency()); },
       .json = [](S& s, uint64_t) { return Json(s.latency()->RenderLatencyJson()); }},
      {.path = "/slow",
       .help = "slow-trace exemplar list",
       .absent = NoLatency,
       .text = [](S& s, uint64_t) { return Text(s.latency()->RenderSlowList()); },
       .json = [](S& s, uint64_t) { return Json(s.latency()->RenderSlowListJson()); }},
      {.path = "/slow",
       .arg = "<id>",
       .help = "one slow-trace exemplar's detail",
       .absent = NoLatency,
       .text = [](S& s, uint64_t id) { return SlowDetail(s, id, /*json=*/false); },
       .json = [](S& s, uint64_t id) { return SlowDetail(s, id, /*json=*/true); }},
      {.path = "/workload",
       .help = "per-layer resource accounting + hot-spot verdicts",
       .absent = NoWorkload,
       .text = [](S& s, uint64_t) { return Text(s.workload()->RenderWorkload()); },
       .json = [](S& s, uint64_t) { return Json(s.workload()->RenderWorkloadJson()); }},
      {.path = "/digest",
       .help = "digest-beacon counters + per-position sample table",
       .absent = NoDigest,
       .text = [](S& s, uint64_t) { return Text(Digest(s)->Render()); },
       .json = [](S& s, uint64_t) { return Json(Digest(s)->RenderJson()); }},
      {.path = "/divergence",
       .help = "earliest-divergence conviction report",
       .absent = NoDigest,
       .text = [](S& s, uint64_t) { return Text(Digest(s)->tracker()->Render()); },
       .json = [](S& s, uint64_t) { return Json(Digest(s)->tracker()->RenderJson()); }},
  };
  return reports;
}

const AdminReport* FindAdminReport(const std::string& path, uint64_t* id) {
  uint64_t parsed = 0;
  for (const AdminReport& report : AdminReports()) {
    if (report.arg.empty() ? path == report.path
                           : path.rfind(report.path + "/", 0) == 0 &&
                                 ParseTraceId(path.substr(report.path.size() + 1), &parsed)) {
      if (id != nullptr) {
        *id = parsed;
      }
      return &report;
    }
  }
  return nullptr;
}

AdminEndpoint::AdminEndpoint(ClusterServer* server) : server_(server) {}

AdminResponse AdminEndpoint::Handle(const std::string& raw_path) const {
  std::string path = raw_path;
  bool json = false;
  const size_t query = path.find('?');
  if (query != std::string::npos) {
    const std::string query_string = path.substr(query + 1);
    path.resize(query);
    // &-separated parameters; the only one recognized today.
    json = ("&" + query_string + "&").find("&format=json&") != std::string::npos;
  }
  uint64_t id = 0;
  const AdminReport* report = FindAdminReport(path == "/" ? "/status" : path, &id);
  if (report == nullptr) {
    return NotFound(path);
  }
  if (report->absent != nullptr) {
    if (const char* absent = report->absent(*server_)) {
      return AdminResponse{404, kTextType, std::string(absent) + "\n"};
    }
  }
  const bool use_json = report->text == nullptr || (json && report->json != nullptr);
  return (use_json ? report->json : report->text)(*server_, id);
}

AdminServer::AdminServer(AdminEndpoint endpoint, Options options)
    : endpoint_(std::move(endpoint)), options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start() {
  if (listen_fd_ >= 0) {
    return true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  shutdown_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { ServeLoopMain(); });
  return true;
}

void AdminServer::Stop() {
  if (listen_fd_ < 0) {
    return;
  }
  shutdown_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AdminServer::ServeLoopMain() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void AdminServer::HandleConnection(int fd) {
  // Bound the read: an admin request is one short GET line plus headers.
  timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  constexpr size_t kMaxRequestBytes = 16 * 1024;
  std::string request;
  char buffer[2048];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    request.append(buffer, static_cast<size_t>(n));
  }

  AdminResponse response;
  const size_t line_end = request.find("\r\n");
  if (request.size() >= kMaxRequestBytes &&
      request.find("\r\n\r\n") == std::string::npos) {
    // The client is still streaming headers past our bound: reject rather
    // than buffer without limit.
    response = AdminResponse{431, "text/plain; charset=utf-8", "request too large\n"};
  } else if (line_end == std::string::npos) {
    if (request.empty()) {
      return;  // client connected and went away; nothing to answer
    }
    response = AdminResponse{400, "text/plain; charset=utf-8", "malformed request line\n"};
  } else {
    std::istringstream line(request.substr(0, line_end));
    std::string method;
    std::string path;
    line >> method >> path;
    if (method.empty() || path.empty() || path[0] != '/') {
      response = AdminResponse{400, "text/plain; charset=utf-8", "malformed request line\n"};
    } else if (method != "GET") {
      response = AdminResponse{405, "text/plain; charset=utf-8", "only GET is supported\n"};
    } else {
      response = endpoint_.Handle(path);
    }
  }
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << " " << StatusText(response.status) << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Content-Length: " << response.body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << response.body;
  const std::string wire = out.str();
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
}

bool AdminHttpGet(const std::string& host, uint16_t port, const std::string& path, int* status,
                  std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t line_end = response.find("\r\n");
  const size_t header_end = response.find("\r\n\r\n");
  if (line_end == std::string::npos || header_end == std::string::npos) {
    return false;
  }
  // "HTTP/1.1 200 OK"
  std::istringstream line(response.substr(0, line_end));
  std::string version;
  int code = 0;
  line >> version >> code;
  if (code == 0) {
    return false;
  }
  if (status != nullptr) {
    *status = code;
  }
  if (body != nullptr) {
    *body = response.substr(header_end + 4);
  }
  return true;
}

}  // namespace delos
