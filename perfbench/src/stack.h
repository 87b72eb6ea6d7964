#ifndef KBT_PERFBENCH_STACK_H_
#define KBT_PERFBENCH_STACK_H_

/// \file
/// The real serving stack the benchmark drives: a serve::Server behind a
/// net::NetServer on localhost TCP and, in durable mode, a store directory,
/// optionally with a repl::Primary and an in-process repl::Follower that
/// pulls over TCP.

#include <cstdint>
#include <memory>
#include <string>

#include "net/server.h"
#include "repl/follower.h"
#include "repl/primary.h"
#include "serve/server.h"

namespace kbt::perfbench {

struct StackConfig {
  /// Empty = in-memory server; otherwise the store directory (created; must
  /// not exist yet). The follower, if any, uses `dir + "-follower"`.
  std::string dir;
  /// Durable only: attach a semi-sync primary (each apply waits for the
  /// follower's ack) and start a follower.
  bool replicated = false;
  /// Off = the server keeps no cache bank: every read builds per-call caches.
  bool cache_bank = true;
};

class Stack {
 public:
  static StatusOr<std::unique_ptr<Stack>> Start(const Knowledgebase& kb,
                                                const StackConfig& config);
  /// Stops the follower, drains the net server and closes the stores.
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  serve::Server& server() { return *server_; }
  net::NetServer& net() { return *net_; }
  repl::Primary* primary() { return primary_.get(); }
  repl::Follower* follower() { return follower_.get(); }
  uint16_t port() const { return net_->port(); }

 private:
  Stack() = default;

  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<repl::Primary> primary_;
  std::unique_ptr<net::NetServer> net_;
  std::unique_ptr<repl::Follower> follower_;
};

/// Replicated stacks: waits (up to 10 s) until the follower has applied
/// every commit of the primary, then checks that both serialize their
/// current knowledgebase to the same bytes. kDataLoss when they differ.
Status CheckFollowerMatches(Stack& stack);

/// Bytes held by the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace kbt::perfbench

#endif  // KBT_PERFBENCH_STACK_H_
