// Tests for the socket server subsystem (src/server/): framing,
// session lifecycle over real TCP connections, concurrent clients
// sharing one engine, pin conflicts across connections, idle timeout,
// and graceful shutdown. Everything binds to an ephemeral loopback
// port, so tests can run in parallel.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_api.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace orpheus {
namespace {

using core::CvdOptions;
using core::EngineApi;
using server::Client;
using server::Server;
using server::ServerOptions;

// k INT (pk), score DOUBLE.
rel::Chunk MakeRows(int n) {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("score", rel::DataType::kDouble);
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.mutable_column(0).AppendInt(i);
    rows.mutable_column(1).AppendDouble(1.5 * i);
  }
  return rows;
}

void Seed(EngineApi* api, const std::string& name, int n) {
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(api->orpheus()->InitCvd(name, MakeRows(n), options, "init").ok());
}

std::string MustExecute(Client* client, const std::string& line) {
  auto result = client->Execute(line);
  EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
  return result.ok() ? result.value() : std::string();
}

// Waits (bounded) for the server to tear down disconnected sessions.
void AwaitActiveSessions(Server* server, size_t want) {
  for (int i = 0; i < 500; ++i) {
    if (server->sessions()->active() == want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(want, server->sessions()->active());
}

TEST(Protocol, ResponseRoundTrip) {
  std::string wire = server::EncodeResponse(Status::OK(), false, "hello\nrows");
  server::Response response = server::DecodeResponse(wire).ValueOrDie();
  EXPECT_TRUE(response.status.ok());
  EXPECT_FALSE(response.closed);
  EXPECT_EQ("hello\nrows", response.text);

  wire = server::EncodeResponse(Status::NotFound("no such CVD"), true, "");
  response = server::DecodeResponse(wire).ValueOrDie();
  EXPECT_EQ(StatusCode::kNotFound, response.status.code());
  EXPECT_TRUE(response.closed);
  EXPECT_EQ("no such CVD", response.status.message());

  EXPECT_FALSE(server::DecodeResponse("").ok());        // too short
  EXPECT_FALSE(server::DecodeResponse("x").ok());       // no closed byte
}

TEST(Protocol, ParseHostPort) {
  auto hp = server::ParseHostPort("127.0.0.1:4321").ValueOrDie();
  EXPECT_EQ("127.0.0.1", hp.first);
  EXPECT_EQ(4321, hp.second);
  hp = server::ParseHostPort("9000").ValueOrDie();
  EXPECT_EQ("127.0.0.1", hp.first);
  EXPECT_EQ(9000, hp.second);
  EXPECT_FALSE(server::ParseHostPort("host:").ok());
  EXPECT_FALSE(server::ParseHostPort("").ok());
  EXPECT_FALSE(server::ParseHostPort("host:99999").ok());
}

TEST(ServerTest, HelloAndBasicCommands) {
  EngineApi api;
  Server server(&api, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(0u, client.hello().find("ORPHEUS/1 session "));
  EXPECT_EQ("(no CVDs)", MustExecute(&client, "ls"));
  EXPECT_EQ("default", MustExecute(&client, "whoami"));
  // Errors come back as Status, connection stays usable.
  EXPECT_FALSE(client.Execute("graph nosuch").ok());
  EXPECT_FALSE(client.closed());
  EXPECT_EQ("(no pins)", MustExecute(&client, "pins"));
  server.Stop();
}

TEST(ServerTest, ExitEndsTheSession) {
  EngineApi api;
  Server server(&api, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ("bye", MustExecute(&client, "exit"));
  EXPECT_TRUE(client.closed());
  EXPECT_FALSE(client.Execute("ls").ok());
  AwaitActiveSessions(&server, 0);
  server.Stop();
}

TEST(ServerTest, TwoClientsShareEngineButNotSessionState) {
  EngineApi api;
  Seed(&api, "c", 5);
  Server server(&api, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client a;
  Client b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  EXPECT_NE(a.hello(), b.hello());  // distinct session ids

  // A commits a new version; B sees it through the shared engine.
  MustExecute(&a, "checkout c -v 1 -t wa");
  MustExecute(&a, "sql UPDATE wa SET score = 42.0 WHERE k = 2");
  MustExecute(&a, "commit -t wa -m from_a");
  EXPECT_NE(std::string::npos, MustExecute(&b, "graph c").find("v2"));

  // But user identity is per session.
  MustExecute(&a, "create_user alice");
  MustExecute(&a, "config alice");
  EXPECT_EQ("alice", MustExecute(&a, "whoami"));
  EXPECT_EQ("default", MustExecute(&b, "whoami"));

  // B cannot commit A's staged table name after A discarded it — each
  // checkout is tracked per session.
  MustExecute(&a, "checkout c -v 1 -t wtmp");
  MustExecute(&a, "discard -t wtmp");
  EXPECT_FALSE(b.Execute("commit -t wtmp -m steal").ok());
  server.Stop();
}

TEST(ServerTest, PinConflictAcrossConnections) {
  EngineApi api;
  Seed(&api, "c", 5);
  Server server(&api, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client pinner;
  Client dropper;
  ASSERT_TRUE(pinner.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(dropper.Connect("127.0.0.1", server.port()).ok());

  MustExecute(&pinner, "pin c");
  auto drop = dropper.Execute("drop c");
  ASSERT_FALSE(drop.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, drop.status().code());

  MustExecute(&pinner, "unpin c");
  EXPECT_EQ("dropped c", MustExecute(&dropper, "drop c"));
  server.Stop();
}

TEST(ServerTest, DisconnectReleasesPinsAndStagedTables) {
  EngineApi api;
  Seed(&api, "c", 5);
  Server server(&api, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    Client transient;
    ASSERT_TRUE(transient.Connect("127.0.0.1", server.port()).ok());
    MustExecute(&transient, "checkout c -v 1 -t wzombie");
    MustExecute(&transient, "pin c");
    ASSERT_TRUE(api.orpheus()->db()->GetTable("wzombie").ok());
  }  // drops the connection without exit/discard

  AwaitActiveSessions(&server, 0);
  // The server reaped the session: staged table gone, pin released.
  EXPECT_FALSE(api.orpheus()->db()->GetTable("wzombie").ok());
  EXPECT_EQ(0, api.registry()->PinCount("c"));

  Client next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ("dropped c", MustExecute(&next, "drop c"));
  server.Stop();
}

TEST(ServerTest, IdleSessionTimesOut) {
  EngineApi api;
  ServerOptions options;
  options.idle_timeout_sec = 0.3;
  Server server(&api, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ("(no CVDs)", MustExecute(&client, "ls"));
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  AwaitActiveSessions(&server, 0);
  EXPECT_FALSE(client.Execute("ls").ok());  // server hung up
  server.Stop();
}

TEST(ServerTest, ConcurrentClientsCommitEverythingLands) {
  EngineApi api;
  Seed(&api, "c", 6);
  ServerOptions options;
  options.workers = 6;
  Server server(&api, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 5;
  constexpr int kCommits = 4;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([port = server.port(), i] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
      for (int j = 0; j < kCommits; ++j) {
        std::string w = "cw" + std::to_string(i) + "_" + std::to_string(j);
        MustExecute(&client, "checkout c -v 1 -t " + w);
        MustExecute(&client, "commit -t " + w + " -m x");
      }
      MustExecute(&client, "exit");
    });
  }
  for (std::thread& t : threads) t.join();

  core::Cvd* cvd = api.orpheus()->GetCvd("c").ValueOrDie();
  EXPECT_EQ(1 + kClients * kCommits, cvd->latest_version());
  server.Stop();
}

TEST(ServerTest, StopIsGracefulAndIdempotent) {
  EngineApi api;
  Server server(&api, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ("(no CVDs)", MustExecute(&client, "ls"));

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(client.Execute("ls").ok());
  EXPECT_EQ(0u, server.sessions()->active());
  // A fresh connect is refused: the listener is gone.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());
}

// Opens and closes a loopback connection without reading anything, so
// a connect that lands on another process's listener (the port is
// free again once Stop returns) cannot block. True if it connected.
bool TouchPort(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

// Stop shuts the listener down, joins the acceptor, and only then
// closes the descriptor: closing (or letting the number be reused)
// under a thread still in accept() on it is a data race. Repeated
// start/stop under a storm of connects exercises that ordering; run
// it under -DORPHEUS_SANITIZE=thread to check it.
TEST(ServerTest, RepeatedStartStopWithConcurrentConnects) {
  EngineApi api;
  for (int round = 0; round < 20; ++round) {
    ServerOptions options;
    options.workers = 2;
    Server server(&api, options);
    ASSERT_TRUE(server.Start().ok());
    const uint16_t port = server.port();
    std::atomic<bool> done{false};
    std::atomic<int> connected{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&] {
        while (!done.load()) {
          if (TouchPort(port)) ++connected;
        }
      });
    }
    for (int i = 0; i < 2000 && connected.load() < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(connected.load(), 4) << "round " << round;
    server.Stop();
    done = true;
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(0u, server.sessions()->active()) << "round " << round;
  }
}

}  // namespace
}  // namespace orpheus
