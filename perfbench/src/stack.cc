#include "stack.h"

#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "net/transport.h"
#include "rel/binary_io.h"

namespace kbt::perfbench {

using Clock = std::chrono::steady_clock;

StatusOr<std::unique_ptr<Stack>> Stack::Start(const Knowledgebase& kb,
                                              const StackConfig& config) {
  std::unique_ptr<Stack> stack(new Stack());
  serve::ServerOptions serve_options;
  serve_options.use_cache_bank = config.cache_bank;
  if (config.dir.empty()) {
    stack->server_ = std::make_unique<serve::Server>(kb, serve_options);
  } else {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(config.dir).parent_path(), ec);
    store::StoreOptions store_options;
    store_options.sync_mode = store::SyncMode::kEveryCommit;
    KBT_ASSIGN_OR_RETURN(stack->server_,
                         serve::Server::OpenDurable(config.dir, kb,
                                                    store_options,
                                                    serve_options));
  }
  net::NetServerOptions net_options;
  if (config.replicated) {
    repl::PrimaryOptions primary_options;
    primary_options.semi_sync = true;
    primary_options.semi_sync_timeout_ms = 10'000;
    KBT_ASSIGN_OR_RETURN(stack->primary_, repl::Primary::Attach(
                                              stack->server_.get(),
                                              primary_options));
    net_options.repl = stack->primary_.get();
  }
  stack->net_ = std::make_unique<net::NetServer>(stack->server_.get(),
                                                 net_options);
  KBT_RETURN_IF_ERROR(stack->net_->Start());
  if (config.replicated) {
    repl::FollowerOptions follower_options;
    follower_options.node_id = "perfbench-follower";
    follower_options.dir = config.dir + "-follower";
    follower_options.initial = kb;
    follower_options.store.sync_mode = store::SyncMode::kEveryCommit;
    const uint16_t port = stack->net_->port();
    follower_options.connect = [port] {
      return net::DialTcp("127.0.0.1", port);
    };
    KBT_ASSIGN_OR_RETURN(stack->follower_,
                         repl::Follower::Open(std::move(follower_options)));
    KBT_RETURN_IF_ERROR(stack->follower_->Start());
  }
  return stack;
}

Stack::~Stack() {
  if (follower_ != nullptr) follower_->Stop();
  follower_.reset();
  if (net_ != nullptr) {
    Status ignored = net_->Shutdown();
    (void)ignored;
  }
  net_.reset();
  primary_.reset();
  server_.reset();
}

Status CheckFollowerMatches(Stack& stack) {
  const uint64_t lsn = stack.server().store()->lsn();
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (stack.follower()->applied_lsn() < lsn) {
    if (Clock::now() > deadline) {
      return Status::DeadlineExceeded("follower did not catch up to lsn " +
                                      std::to_string(lsn));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string primary_bytes =
      SerializeKnowledgebase(stack.server().CurrentSnapshot()->kb);
  const std::string follower_bytes =
      SerializeKnowledgebase(stack.follower()->server()->CurrentSnapshot()->kb);
  if (primary_bytes != follower_bytes) {
    return Status::DataLoss("follower state differs from the primary's at lsn " +
                            std::to_string(lsn));
  }
  return Status::OK();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace kbt::perfbench
