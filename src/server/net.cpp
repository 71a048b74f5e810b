#include "server/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_safety.hpp"

namespace ccg::server {

namespace {

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

// The open connections of one listener. accept_loop adds each accepted fd
// before its handler starts, and a handler removes its fd under the lock
// before closing it, so shutdown_all never reaches a closed (and perhaps
// reused) descriptor.
class Connections {
 public:
  void add(int fd) CCG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    fds_.insert(fd);
  }
  void close(int fd) CCG_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      fds_.erase(fd);
    }
    ::close(fd);
  }
  // Every handler blocked in recv gets end of stream, so a listener that
  // stops can join handlers whose peers are idle.
  void shutdown_all() CCG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  Mutex mu_;
  std::set<int> fds_ CCG_GUARDED_BY(mu_);
};

// One connection: split the byte stream into lines, feed handle_line,
// write back whatever it produced. `quit` flips the shared stop flag and
// shuts the listener down so accept() unblocks. A line over kMaxLineBytes
// gets `error line N: line too long` and closes this connection only.
//
// Concurrency note: every local (buf/line/resp) is owned by this handler
// thread; cross-connection state is reached only through
// Server::handle_line, which locks the server's annotated Mutex
// internally, and through `conns`, which locks its own. The shutdown
// handshake is the `stop` atomic (release-store here, acquire-load in
// accept_loop) plus shutdown() on the listener fd, which unblocks
// accept(), and then on every open connection (Connections::shutdown_all),
// which unblocks the other handlers' recv().
void serve_connection(Server* server, int fd, int listen_fd,
                      std::atomic<bool>* stop, Connections* conns) {
  std::string buf, line, resp;
  char chunk[4096];
  int lineno = 0;
  bool open = true;
  while (open) {
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    // buf holds no '\n' before this chunk, so only the new bytes are
    // searched.
    std::size_t scan = buf.size();
    buf.append(chunk, static_cast<std::size_t>(r));
    std::size_t start = 0, pos;
    while (open && (pos = buf.find('\n', scan)) != std::string::npos &&
           pos - start <= kMaxLineBytes) {
      line.assign(buf, start, pos - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = scan = pos + 1;
      ++lineno;
      resp.clear();
      try {
        open = server->handle_line(line, lineno, &resp);
      } catch (const svc::ManifestError& e) {
        // Socket clients are peers, not scripts: report and keep serving.
        resp = std::string("error ") + e.what() + "\n";
      }
      if (!send_all(fd, resp)) open = false;
    }
    buf.erase(0, start);
    if (open && buf.size() > kMaxLineBytes) {
      send_all(fd, "error line " + std::to_string(lineno + 1) +
                       ": line too long\n");
      break;
    }
  }
  conns->close(fd);
  if (!open) {
    stop->store(true, std::memory_order_release);
    ::shutdown(listen_fd, SHUT_RDWR);
  }
}

int accept_loop(Server& server, int listen_fd) {
  std::atomic<bool> stop{false};
  Connections conns;
  std::vector<std::thread> handlers;
  while (!stop.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stop.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;
    }
    conns.add(fd);
    handlers.emplace_back(serve_connection, &server, fd, listen_fd, &stop,
                          &conns);
  }
  // No handler is added past this point: end every connection still open,
  // or a peer that stays idle would keep its handler, and this join, in
  // recv() forever.
  conns.shutdown_all();
  for (auto& t : handlers) t.join();
  ::close(listen_fd);
  return 0;
}

int listener_error(const char* what) {
  std::fprintf(stderr, "ccg_serve: %s: %s\n", what, std::strerror(errno));
  return 3;
}

}  // namespace

int serve_stream(Server& server, std::istream& in, std::ostream& out,
                 bool strict) {
  std::string line, resp;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    resp.clear();
    try {
      const bool keep = server.handle_line(line, lineno, &resp);
      out << resp << std::flush;
      if (!keep) return 0;
    } catch (const svc::ManifestError& e) {
      if (strict) {
        std::fprintf(stderr, "ccg_serve: %s\n", e.what());
        return 2;
      }
      out << "error " << e.what() << "\n" << std::flush;
    }
  }
  return 0;
}

int serve_unix(Server& server, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "ccg_serve: unix socket path too long: %s\n",
                 path.c_str());
    return 3;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return listener_error("socket");
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return listener_error("bind");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return listener_error("listen");
  }
  return accept_loop(server, fd);
}

int serve_tcp(Server& server, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return listener_error("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return listener_error("bind");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return listener_error("listen");
  }
  return accept_loop(server, fd);
}

}  // namespace ccg::server
