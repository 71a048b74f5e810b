// Transports for the serving mode: stdio streams and POSIX sockets.
//
// The Server itself (server.hpp) is transport-agnostic — it consumes
// request lines and produces response text. This unit feeds it:
//
//   * serve_stream: read lines from an istream, write responses to an
//     ostream. `strict` makes a malformed request terminate the stream
//     with exit code 2 (the batch CLI's bad-input code) — the mode the
//     CI smoke and scripted drivers use, where a bad line is a driver
//     bug, not a client to be tolerated.
//   * serve_unix / serve_tcp: a listener accepting any number of
//     concurrent client connections, one handler thread each, lines in /
//     responses out per connection. Malformed requests get an `error`
//     response and the connection keeps serving. A line longer than
//     kMaxLineBytes gets `error line N: line too long` and that
//     connection is closed. A `quit` from any connection shuts the
//     listener down and ends every other open connection (a peer that is
//     idle reads end of stream), and serve_* returns 0.
//
// Plain blocking POSIX sockets, loopback TCP only — this is a job
// server for trusted co-located clients, not an internet endpoint.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "server/server.hpp"

namespace ccg::server {

// Longest request line a socket peer may send, newline excluded. Job lines
// are a few hundred bytes; the cap bounds the buffer a peer that never
// sends '\n' can make its handler hold.
inline constexpr std::size_t kMaxLineBytes = 65536;  // 64 KiB

// Returns the process exit code: 0 on quit or EOF, 2 on a malformed
// request in strict mode.
int serve_stream(Server& server, std::istream& in, std::ostream& out,
                 bool strict);

// Return 0 after `quit`, or 3 when the listener cannot be set up
// (message on stderr). The Unix path is unlinked first if stale.
int serve_unix(Server& server, const std::string& path);
int serve_tcp(Server& server, int port);

}  // namespace ccg::server
