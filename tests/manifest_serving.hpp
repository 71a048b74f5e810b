// Manifest test helpers: serve one the way ccg_batch does, and read
// per-job fields back out of the drained report.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "server/server.hpp"

namespace ccg::testing {

struct ServedManifest {
  std::string report;  // drained, no timing
  server::Server::Aggregate aggregate;
  std::uint64_t shed = 0;
};

// An in-process server on manifest_server_options(m, base) with `workers`
// scheduler workers; manifest job i goes in through submit_manifest_job,
// in `order` (empty = manifest order). Every submission must be accepted.
inline ServedManifest serve_manifest(const svc::Manifest& m, int workers,
                                     const std::vector<int>& order = {},
                                     server::ServerOptions base = {}) {
  base.workers = workers;
  server::Server srv(server::manifest_server_options(m, base));
  std::vector<int> ids = order;
  if (ids.empty()) {
    ids.resize(m.jobs.size());
    std::iota(ids.begin(), ids.end(), 0);
  }
  for (const int i : ids) {
    EXPECT_EQ(server::submit_manifest_job(srv, m, static_cast<std::size_t>(i)),
              server::Server::Admission::kAccepted)
        << "manifest job " << i;
  }
  ServedManifest out;
  out.aggregate = srv.aggregate();
  out.report = srv.report_json(/*include_timing=*/false);
  out.shed = srv.scheduler().counters().shed;
  return out;
}

// The report's job rows in report (id) order: row r is the text from the
// r-th `"id"` key up to the next one, or up to the aggregate block.
inline std::vector<std::string> report_rows(const std::string& report) {
  std::vector<std::string> rows;
  const std::string tag = "\"id\": ";
  const std::size_t stop = report.find("\"aggregate\"");
  std::size_t pos = report.find(tag);
  while (pos < stop) {
    const std::size_t next = report.find(tag, pos + 1);
    const std::size_t end = next < stop ? next : stop;
    rows.push_back(report.substr(pos, end - pos));
    pos = next;
  }
  return rows;
}

// One field of a row: the rest of its line, minus the trailing comma and
// any string quotes. Empty when the row has no such field.
inline std::string row_field(const std::string& row, const std::string& name) {
  const std::string tag = "\"" + name + "\": ";
  const std::size_t at = row.find(tag);
  if (at == std::string::npos) return "";
  std::string v = row.substr(at + tag.size(),
                             row.find('\n', at) - at - tag.size());
  if (!v.empty() && v.back() == ',') v.pop_back();
  if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
  return v;
}

}  // namespace ccg::testing
