// Admin endpoint tests: every route exercised in-process (no sockets), then
// the HTTP server itself over a real loopback connection.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/apps/zelos/zelos.h"
#include "src/common/trace.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"
#include "src/net/admin_server.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

// One Zelos server with the production-shaped stack and a short committed
// workload, so every admin surface has real content.
class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Cluster::Options options;
    options.num_servers = 1;
    options.base_options.tracer = &tracer_;
    cluster_ = std::make_unique<Cluster>(options, [&](ClusterServer& server) {
      BuildStack(server, ZelosStackConfig(nullptr));
      auto app = std::make_unique<zelos::ZelosApplicator>();
      app->set_metrics(server.metrics());
      server.top()->RegisterUpcall(app.get());
      server.RegisterHealthTarget(app.get());
      apps_[server.id()] = std::move(app);
    });
    client_ = std::make_unique<zelos::ZelosClient>(cluster_->server(0).top(),
                                                   apps_["server0"].get());
    server().CollectHealth();  // time-series baseline
    session_ = client_->CreateSession();
    for (int i = 0; i < 8; ++i) {
      client_->Create(session_, "/n" + std::to_string(i), "v");
    }
    server().top()->Sync().Get();
    server().CollectHealth();  // close a window over the workload
  }

  ClusterServer& server() { return cluster_->server(0); }

  Tracer tracer_;
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<zelos::ZelosClient> client_;
  zelos::SessionId session_ = 0;
};

TEST_F(AdminServerTest, MetricsRouteServesPrometheusExposition) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("# TYPE base_apply_records counter"), std::string::npos);
  EXPECT_NE(response.body.find("zelos_open_sessions"), std::string::npos);
}

TEST_F(AdminServerTest, HealthzReportsEveryComponentOk) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"state\":\"OK\""), std::string::npos);
  EXPECT_NE(response.body.find("\"component\":\"base\""), std::string::npos);
  EXPECT_NE(response.body.find("\"component\":\"zelos\""), std::string::npos);
  EXPECT_NE(response.body.find("\"component\":\"batching\""), std::string::npos);
}

// A wedged component flips /healthz to 503 — the contract a load balancer or
// Kubernetes probe relies on.
TEST_F(AdminServerTest, HealthzReturns503WhenAnyComponentIsUnhealthy) {
  class WedgedTarget : public IHealthCheckable {
   public:
    HealthReport HealthCheck() const override {
      return HealthReport{"wedged", HealthState::kUnhealthy, "stuck", 1};
    }
  };
  WedgedTarget wedged;
  server().RegisterHealthTarget(&wedged);
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("\"state\":\"UNHEALTHY\""), std::string::npos);
  EXPECT_NE(response.body.find("wedged"), std::string::npos);
  server().watchdog()->RemoveTarget(&wedged);
}

TEST_F(AdminServerTest, StatusRouteRendersTheComponentTable) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/status");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("server server0: OK"), std::string::npos);
  EXPECT_NE(response.body.find("component"), std::string::npos);
  EXPECT_NE(response.body.find("base"), std::string::npos);
  EXPECT_NE(response.body.find("applied="), std::string::npos);
}

TEST_F(AdminServerTest, StackRouteRendersEnginesBottomUp) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/stack");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"server\":\"server0\""), std::string::npos);
  EXPECT_NE(response.body.find("\"applied_position\""), std::string::npos);
  // base must come before batching (bottom-up order).
  const size_t base_at = response.body.find("\"name\":\"base\"");
  const size_t batching_at = response.body.find("\"name\":\"batching\"");
  ASSERT_NE(base_at, std::string::npos);
  ASSERT_NE(batching_at, std::string::npos);
  EXPECT_LT(base_at, batching_at);
}

TEST_F(AdminServerTest, StackRouteReportsEachLayersOwnApplyTimePerRecord) {
  for (int i = 0; i < 4; ++i) {
    client_->SetData("/n0", "w" + std::to_string(i));
  }
  server().top()->Sync().Get();
  const std::string body = AdminEndpoint(&server()).Handle("/stack").body;
  // One object per layer (base + five Zelos engines), each carrying both
  // figures as plain numbers.
  for (const char* field : {"\"apply_us_per_record\":", "\"postapply_us_per_record\":"}) {
    size_t layers = 0;
    for (size_t at = body.find(field); at != std::string::npos; at = body.find(field, at + 1)) {
      const char* value = body.c_str() + at + std::strlen(field);
      char* end = nullptr;
      std::strtod(value, &end);
      EXPECT_NE(end, value) << field << " is not numeric in " << body;
      ++layers;
    }
    EXPECT_EQ(layers, 6u) << body;
  }
}

TEST_F(AdminServerTest, TopAndSeriesServeTheTimeSeriesRing) {
  AdminEndpoint endpoint(&server());
  const AdminResponse top = endpoint.Handle("/top");
  EXPECT_EQ(top.status, 200);
  EXPECT_NE(top.body.find("rate/s"), std::string::npos);
  EXPECT_NE(top.body.find("base.apply.records"), std::string::npos);
  const AdminResponse series = endpoint.Handle("/series");
  EXPECT_EQ(series.status, 200);
  EXPECT_EQ(series.content_type, "application/json");
  EXPECT_NE(series.body.find("\"windows\""), std::string::npos);
}

TEST_F(AdminServerTest, FlightAndTraceRoutesServeTheRecorders) {
  AdminEndpoint endpoint(&server());
  const AdminResponse flight = endpoint.Handle("/flight");
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("append"), std::string::npos);

  const uint64_t trace_id = tracer_.last_trace_id();
  ASSERT_NE(trace_id, 0u);
  const AdminResponse trace = endpoint.Handle("/trace/" + std::to_string(trace_id));
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("trace " + std::to_string(trace_id)), std::string::npos);
  EXPECT_NE(trace.body.find("base.append"), std::string::npos);
}

TEST_F(AdminServerTest, LatencyRouteRendersTheStageTable) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/latency");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("latency attribution: server server0"), std::string::npos);
  EXPECT_NE(response.body.find("e2e"), std::string::npos);
  EXPECT_NE(response.body.find("base.append"), std::string::npos);
  // The conservation footer: attributed + unattributed == end-to-end.
  EXPECT_NE(response.body.find("100.0% of end-to-end"), std::string::npos);
}

TEST_F(AdminServerTest, SlowRoutesServeExemplars) {
  AdminEndpoint endpoint(&server());
  const AdminResponse list = endpoint.Handle("/slow");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("slow traces:"), std::string::npos);
  EXPECT_EQ(endpoint.Handle("/slow/999999").status, 404);
  EXPECT_EQ(endpoint.Handle("/slow/junk").status, 404);
}

TEST_F(AdminServerTest, LatencyRoutesReturn404WhenAttributionIsDisabled) {
  // The latency plane exists iff the cluster has a Tracer.
  Cluster::Options options;
  options.num_servers = 1;
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, ZelosStackConfig(nullptr));
    auto app = std::make_unique<zelos::ZelosApplicator>();
    server.top()->RegisterUpcall(app.get());
    apps[server.id()] = std::move(app);
  });
  AdminEndpoint endpoint(&cluster.server(0));
  EXPECT_EQ(endpoint.Handle("/latency").status, 404);
  EXPECT_EQ(endpoint.Handle("/slow").status, 404);
  cluster.server(0).Stop();
}

TEST_F(AdminServerTest, FormatJsonSwitchesRoutesToMachineReadableBodies) {
  AdminEndpoint endpoint(&server());
  const AdminResponse metrics = endpoint.Handle("/metrics?format=json");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "application/json");
  EXPECT_NE(metrics.body.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.body.find("\"histograms\""), std::string::npos);

  const AdminResponse status = endpoint.Handle("/status?format=json");
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"server\":\"server0\""), std::string::npos);
  EXPECT_NE(status.body.find("\"components\""), std::string::npos);

  const AdminResponse top = endpoint.Handle("/top?format=json");
  EXPECT_EQ(top.status, 200);
  EXPECT_NE(top.body.find("\"windows\""), std::string::npos);

  const AdminResponse latency = endpoint.Handle("/latency?format=json");
  EXPECT_EQ(latency.status, 200);
  EXPECT_NE(latency.body.find("\"stages\""), std::string::npos);

  const AdminResponse slow = endpoint.Handle("/slow?format=json");
  EXPECT_EQ(slow.status, 200);
  EXPECT_NE(slow.body.find("\"traces\""), std::string::npos);

  // Unknown query parameters stay ignored alongside format=json.
  EXPECT_EQ(endpoint.Handle("/metrics?scrape=1&format=json").status, 200);
}

TEST_F(AdminServerTest, UnknownAndMalformedPathsReturn404) {
  AdminEndpoint endpoint(&server());
  EXPECT_EQ(endpoint.Handle("/nope").status, 404);
  EXPECT_EQ(endpoint.Handle("/trace/abc").status, 404);
  EXPECT_EQ(endpoint.Handle("/trace/12junk").status, 404);
  EXPECT_EQ(endpoint.Handle("").status, 404);
}

TEST_F(AdminServerTest, QueryStringsAreIgnored) {
  AdminEndpoint endpoint(&server());
  EXPECT_EQ(endpoint.Handle("/metrics?scrape=1").status, 200);
  EXPECT_EQ(endpoint.Handle("/healthz?verbose=true").status, 200);
}

// A strict recursive-descent check that `text` is exactly one JSON value
// (RFC 8259): no raw control bytes in strings, only the standard escapes.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool WellFormed() {
    SkipSpace();
    if (!Value()) {
      return false;
    }
    SkipSpace();
    return at_ == text_.size();
  }

 private:
  bool Value() {
    if (at_ >= text_.size()) {
      return false;
    }
    switch (text_[at_]) {
      case '{':
        return Container('}', /*object=*/true);
      case '[':
        return Container(']', /*object=*/false);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Container(char close, bool object) {
    ++at_;
    SkipSpace();
    if (Peek(close)) {
      ++at_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (object) {
        if (!String()) {
          return false;
        }
        SkipSpace();
        if (!Peek(':')) {
          return false;
        }
        ++at_;
        SkipSpace();
      }
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (Peek(close)) {
        ++at_;
        return true;
      }
      if (!Peek(',')) {
        return false;
      }
      ++at_;
    }
  }

  bool String() {
    if (!Peek('"')) {
      return false;
    }
    for (++at_; at_ < text_.size(); ++at_) {
      const unsigned char c = static_cast<unsigned char>(text_[at_]);
      if (c == '"') {
        ++at_;
        return true;
      }
      if (c < 0x20) {
        return false;
      }
      if (c != '\\') {
        continue;
      }
      if (++at_ >= text_.size()) {
        return false;
      }
      if (text_[at_] == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (++at_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[at_]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(text_[at_]) == std::string_view::npos) {
        return false;
      }
    }
    return false;
  }

  bool Number() {
    if (Peek('-')) {
      ++at_;
    }
    if (Peek('0')) {
      ++at_;
    } else if (!Digits()) {
      return false;
    }
    if (Peek('.')) {
      ++at_;
      if (!Digits()) {
        return false;
      }
    }
    if (Peek('e') || Peek('E')) {
      ++at_;
      if (Peek('+') || Peek('-')) {
        ++at_;
      }
      return Digits();
    }
    return true;
  }

  bool Digits() {
    const size_t start = at_;
    while (at_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
    return at_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(at_, word.size()) != word) {
      return false;
    }
    at_ += word.size();
    return true;
  }

  bool Peek(char c) const { return at_ < text_.size() && text_[at_] == c; }

  void SkipSpace() {
    while (at_ < text_.size() && std::string_view(" \t\r\n").find(text_[at_]) !=
                                     std::string_view::npos) {
      ++at_;
    }
  }

  std::string_view text_;
  size_t at_ = 0;
};

TEST(JsonCheckerTest, AcceptsDocumentsAndRejectsBrokenOnes) {
  for (const char* good : {"{}", "[]", "{\"a\":[1,-2.5,3e+2,true,false,null,\"x\\ty\"]}\n",
                           "\"\\u0001\"", "0"}) {
    EXPECT_TRUE(JsonChecker(good).WellFormed()) << good;
  }
  for (const char* bad : {"", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "\"tab\there\"",
                          "\"q\"x\"", "01", "1.", "{}{}", "\"\\x\""}) {
    EXPECT_FALSE(JsonChecker(bad).WellFormed()) << bad;
  }
}

// Every report with a JSON form renders a well-formed document, even when
// the server id, a Zelos path and a workload key carry quotes, backslashes
// and control bytes.
TEST(AdminReportJsonTest, EveryJsonReportIsWellFormedWithHostileNames) {
  const std::string hostile = std::string("\"q\\b\tt\rr") + '\x01';
  Tracer tracer;
  BaseEngineOptions options;
  options.tracer = &tracer;
  zelos::ZelosApplicator app;
  ClusterServer server("server" + hostile, std::make_shared<InMemoryLog>(),
                       LocalStore::Open(LocalStore::Options{}), options);
  StackConfig config = ZelosStackConfig(nullptr);
  config.digest_beacon_every = 4;
  BuildStack(server, config);
  app.set_metrics(server.metrics());
  server.RegisterApplicator(&app, zelos::ZelosKeyExtractor::Instance());
  server.RegisterHealthTarget(&app);
  server.Start();

  zelos::ZelosClient client(server.top(), &app);
  server.CollectHealth();  // time-series baseline
  // 0x01 is Zelos's child separator, so the store rejects this path; the
  // workload tap charges the key before apply, and each failed proposal is
  // kept as a slow-trace exemplar.
  const std::string odd_path = "/odd" + hostile.substr(0, hostile.size() - 1);
  client.Create(0, odd_path, "v");
  for (int i = 0; i < 16; ++i) {
    client.SetData(odd_path, "v" + std::to_string(i));
    EXPECT_ANY_THROW(client.Create(0, "/bad" + hostile, "v"));
  }
  const uint64_t failed_trace = tracer.last_trace_id();
  server.top()->Sync().Get();
  server.CollectHealth();  // close a window over the workload

  AdminEndpoint endpoint(&server);
  int checked = 0;
  for (const AdminReport& report : AdminReports()) {
    if (report.json == nullptr) {
      continue;
    }
    const std::string path =
        report.path + (report.arg.empty() ? "" : "/" + std::to_string(failed_trace));
    SCOPED_TRACE(path);
    const AdminResponse response = endpoint.Handle(path + "?format=json");
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.content_type, "application/json");
    EXPECT_TRUE(JsonChecker(response.body).WellFormed()) << response.body;
    ++checked;
  }
  EXPECT_GE(checked, 12);
  // The hostile names made it into the reports, escaped.
  const std::string escaped_id = "server\\\"q\\\\b\\tt\\rr\\u0001";
  EXPECT_NE(endpoint.Handle("/digest?format=json").body.find(escaped_id), std::string::npos);
  EXPECT_NE(endpoint.Handle("/top/keys?format=json").body.find("bad\\\"q"), std::string::npos);
  server.Stop();
}

TEST_F(AdminServerTest, HttpServerServesRoutesOverLoopback) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  ASSERT_NE(admin.port(), 0);  // ephemeral port was bound and recovered

  int status = 0;
  std::string body;
  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"state\":\"OK\""), std::string::npos);

  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("base_apply_records"), std::string::npos);

  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/nope", &status, &body));
  EXPECT_EQ(status, 404);

  // Serial requests on fresh connections (Connection: close semantics).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/stack", &status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"name\":\"base\""), std::string::npos);
  }
  admin.Stop();
  // After Stop the port no longer answers.
  EXPECT_FALSE(AdminHttpGet("127.0.0.1", admin.port(), "/healthz", &status, &body));
}

// Sends raw bytes to the admin server and returns everything it answered
// (empty on connect failure). Shuts down the write side so the server's
// header read loop terminates without waiting out its receive timeout.
std::string RawAdminRequest(uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(AdminServerTest, MalformedRequestLineReturns400) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  // No CRLF at all: not even a request line to parse.
  EXPECT_NE(RawAdminRequest(admin.port(), "complete garbage").find("HTTP/1.1 400"),
            std::string::npos);
  // A request line with a method but no path.
  EXPECT_NE(RawAdminRequest(admin.port(), "GET\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  // A path that does not start with '/'.
  EXPECT_NE(RawAdminRequest(admin.port(), "GET metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  // Wrong method on a well-formed line.
  EXPECT_NE(RawAdminRequest(admin.port(), "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  admin.Stop();
}

TEST_F(AdminServerTest, OversizedRequestReturns431) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  // 20 KB of headers with no terminating blank line: the server must stop
  // buffering at its 16 KB bound and reject, not read forever.
  std::string huge = "GET /metrics HTTP/1.1\r\n";
  huge += "X-Padding: " + std::string(20 * 1024, 'a') + "\r\n";
  const std::string response = RawAdminRequest(admin.port(), huge);
  EXPECT_NE(response.find("HTTP/1.1 431"), std::string::npos);
  EXPECT_NE(response.find("request too large"), std::string::npos);
  admin.Stop();
}

TEST_F(AdminServerTest, UnknownRouteOverHttpReturns404) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/definitely-not-a-route", &status,
                           &body));
  EXPECT_EQ(status, 404);
  admin.Stop();
}

TEST_F(AdminServerTest, ServerRestartsCleanly) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  const uint16_t first_port = admin.port();
  admin.Stop();
  ASSERT_TRUE(admin.Start());  // rebind (possibly a different ephemeral port)
  int status = 0;
  std::string body;
  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/status", &status, &body));
  EXPECT_EQ(status, 200);
  admin.Stop();
  (void)first_port;
}

}  // namespace
}  // namespace delos
