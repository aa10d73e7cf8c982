// The shard server: serves one partition of a sharded corpus over the frame
// protocol (net/framing.hpp, net/protocol.hpp). One accept thread, one
// reader + one executor thread per connection, and a bounded admission
// queue per connection — a full queue answers `rejected` immediately rather
// than letting latency pile up invisibly.
//
// A query is one detail::run_query (db/scan.hpp) over a one-shard set that
// maps results to global ids: the same engine, candidate rule, bound order
// and pruning as the in-process search, so a 1-shard fleet does exactly the
// in-process work. The engine calls the scan's stop hook every
// `scan_chunk` candidates, and the hook checks the query's deadline and
// CANCEL flag; a scan it stops answers `expired` with the exact top-k of
// what it visited.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "db/database.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace bes::net {

struct server_options {
  std::uint16_t port = 0;        // 0 = ephemeral; shard_server::port() tells
  unsigned scan_threads = 1;     // worker threads per scan (caps wire value)
  std::size_t scan_chunk = 1024; // candidates per deadline/cancel check
  std::size_t max_queue = 16;    // admission: queued queries per connection
  std::uint32_t max_payload = default_max_payload;
  // Test hook: sleep this long before every block of scan_chunk
  // candidates, making "the deadline passes mid-scan" reproducible without
  // a huge corpus.
  unsigned scan_delay_ms = 0;
};

// Serves one shard. The database reference must outlive the server;
// `global_ids` maps local record ids to corpus-global ids (results cross
// the wire already translated).
class shard_server {
 public:
  shard_server(const image_database& db, std::vector<image_id> global_ids,
               std::uint32_t shard_index, const server_options& options);
  ~shard_server();

  shard_server(const shard_server&) = delete;
  shard_server& operator=(const shard_server&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint32_t shard_index() const noexcept { return shard_; }

  // Asks every thread to wind down (closes the listener and all connection
  // sockets) without joining — safe from any thread, including a
  // connection's own reader (the SHUTDOWN frame path).
  void request_stop() noexcept;

  // request_stop() + join everything. NOT callable from a server thread.
  void stop();

  // Blocks until request_stop() has been called (serve CLI main loop).
  void wait_stop();

  // True once request_stop() has been called (poll-friendly counterpart of
  // wait_stop for loops that also watch signal flags).
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  struct pending_query;
  struct connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<connection>& conn);
  void executor_loop(const std::shared_ptr<connection>& conn);
  [[nodiscard]] result_msg run_query(pending_query& q);

  const image_database& db_;
  std::vector<image_id> global_ids_;
  std::uint32_t shard_;
  server_options options_;

  tcp_listener listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> stop_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;

  std::thread accept_thread_;
  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<connection>> conns_;
};

}  // namespace bes::net
