#include "workload/trace_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace aalo::workload {

namespace {

// Counts on job/coflow lines come from the input, so reservations are
// capped (well above any real coflow's width); a count the lines that
// follow do not honour ends in a typed rejection, not in bad_alloc.
constexpr std::size_t kMaxReserve = 65'536;

std::string formatId(const coflow::CoflowId& id) { return id.toString(); }

coflow::CoflowId parseId(const std::string& token, std::size_t line_no) {
  const auto dot = token.find('.');
  if (dot == std::string::npos) {
    throw std::runtime_error("trace line " + std::to_string(line_no) +
                             ": bad coflow id '" + token + "'");
  }
  try {
    return coflow::CoflowId{std::stoll(token.substr(0, dot)),
                            std::stoi(token.substr(dot + 1))};
  } catch (const std::exception&) {
    throw std::runtime_error("trace line " + std::to_string(line_no) +
                             ": bad coflow id '" + token + "'");
  }
}

/// Parses "sa=1.0,2.1" / "fb=..." suffix lists.
std::vector<coflow::CoflowId> parseIdList(const std::string& payload,
                                          std::size_t line_no) {
  std::vector<coflow::CoflowId> ids;
  std::stringstream ss(payload);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) ids.push_back(parseId(item, line_no));
  }
  return ids;
}

}  // namespace

void writeTrace(std::ostream& os, const coflow::Workload& workload) {
  // Full round-trip precision for times and sizes.
  os.precision(17);
  os << "aalo-trace 1\n";
  os << "ports " << workload.num_ports << "\n";
  for (const coflow::JobSpec& job : workload.jobs) {
    os << "job " << job.id << " " << job.arrival << " " << job.compute_time << " "
       << job.coflows.size() << "\n";
    for (const coflow::CoflowSpec& c : job.coflows) {
      os << "coflow " << formatId(c.id) << " " << c.arrival_offset << " "
         << c.flows.size();
      if (!c.starts_after.empty()) {
        os << " sa=";
        for (std::size_t i = 0; i < c.starts_after.size(); ++i) {
          os << (i ? "," : "") << formatId(c.starts_after[i]);
        }
      }
      if (!c.finishes_before.empty()) {
        os << " fb=";
        for (std::size_t i = 0; i < c.finishes_before.size(); ++i) {
          os << (i ? "," : "") << formatId(c.finishes_before[i]);
        }
      }
      // Emitted only when set so deadline-free traces stay byte-identical
      // with the pre-deadline format (and readable by older parsers).
      if (c.deadline > 0) os << " dl=" << c.deadline;
      os << "\n";
      for (const coflow::FlowSpec& f : c.flows) {
        os << "flow " << f.src << " " << f.dst << " " << f.bytes << " "
           << f.start_offset << "\n";
      }
    }
  }
}

void writeTraceFile(const std::string& path, const coflow::Workload& workload) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("writeTraceFile: cannot open " + path);
  writeTrace(out, workload);
}

coflow::Workload readTrace(std::istream& is) {
  coflow::Workload wl;
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  coflow::JobSpec* job = nullptr;
  coflow::CoflowSpec* cf = nullptr;
  std::size_t coflows_expected = 0;
  std::size_t flows_expected = 0;

  auto fail = [&](const std::string& why) -> void {
    throw std::runtime_error("trace line " + std::to_string(line_no) + ": " + why);
  };

  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    std::string kind;
    if (!(ss >> kind)) continue;  // Blank line.

    if (kind == "aalo-trace") {
      int version = 0;
      if (!(ss >> version) || version != 1) fail("unsupported trace version");
      header_seen = true;
    } else if (!header_seen) {
      fail("missing 'aalo-trace 1' header");
    } else if (kind == "ports") {
      if (!(ss >> wl.num_ports)) fail("bad ports line");
    } else if (kind == "job") {
      std::size_t num_coflows = 0;
      coflow::JobSpec j;
      if (!(ss >> j.id >> j.arrival >> j.compute_time >> num_coflows)) {
        fail("bad job line");
      }
      if (cf != nullptr && flows_expected != cf->flows.size()) {
        fail("previous coflow has missing flows");
      }
      if (job != nullptr && coflows_expected != job->coflows.size()) {
        fail("previous job has missing coflows");
      }
      coflows_expected = num_coflows;
      wl.jobs.push_back(std::move(j));
      job = &wl.jobs.back();
      job->coflows.reserve(std::min(num_coflows, kMaxReserve));
      cf = nullptr;
    } else if (kind == "coflow") {
      if (job == nullptr) fail("coflow before any job");
      if (job->coflows.size() >= coflows_expected) fail("more coflows than declared");
      if (cf != nullptr && flows_expected != cf->flows.size()) {
        fail("previous coflow has missing flows");
      }
      std::string id_token;
      coflow::CoflowSpec c;
      if (!(ss >> id_token >> c.arrival_offset >> flows_expected)) {
        fail("bad coflow line");
      }
      c.id = parseId(id_token, line_no);
      std::string extra;
      while (ss >> extra) {
        if (extra.rfind("sa=", 0) == 0) {
          c.starts_after = parseIdList(extra.substr(3), line_no);
        } else if (extra.rfind("fb=", 0) == 0) {
          c.finishes_before = parseIdList(extra.substr(3), line_no);
        } else if (extra.rfind("dl=", 0) == 0) {
          try {
            c.deadline = std::stod(extra.substr(3));
          } catch (const std::exception&) {
            fail("bad coflow deadline '" + extra + "'");
          }
        } else {
          fail("unknown coflow attribute '" + extra + "'");
        }
      }
      c.flows.reserve(std::min(flows_expected, kMaxReserve));
      job->coflows.push_back(std::move(c));
      cf = &job->coflows.back();
    } else if (kind == "flow") {
      if (cf == nullptr) fail("flow before any coflow");
      if (cf->flows.size() >= flows_expected) fail("more flows than declared");
      coflow::FlowSpec f;
      if (!(ss >> f.src >> f.dst >> f.bytes >> f.start_offset)) fail("bad flow line");
      cf->flows.push_back(f);
    } else {
      fail("unknown record '" + kind + "'");
    }
  }
  if (cf != nullptr && flows_expected != cf->flows.size()) {
    throw std::runtime_error("trace: last coflow has missing flows");
  }
  if (job != nullptr && coflows_expected != job->coflows.size()) {
    throw std::runtime_error("trace: last job has missing coflows");
  }
  wl.validate();
  return wl;
}

coflow::Workload readTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("readTraceFile: cannot open " + path);
  return readTrace(in);
}

coflow::Workload readCoflowBenchmarkTrace(std::istream& is) {
  coflow::Workload wl;
  std::size_t num_jobs = 0;
  if (!(is >> wl.num_ports >> num_jobs)) {
    throw std::runtime_error("coflow-benchmark trace: bad header");
  }

  auto parsePort = [&](long raw, const char* what) -> coflow::PortId {
    // Published traces use 1-based rack ids.
    const long port = raw - 1;
    if (port < 0 || port >= wl.num_ports) {
      throw std::runtime_error(std::string("coflow-benchmark trace: ") + what +
                               " rack out of range");
    }
    return static_cast<coflow::PortId>(port);
  };

  for (std::size_t j = 0; j < num_jobs; ++j) {
    long job_id = 0;
    double arrival_ms = 0;
    int num_mappers = 0;
    if (!(is >> job_id >> arrival_ms >> num_mappers) || num_mappers <= 0) {
      throw std::runtime_error("coflow-benchmark trace: bad job line");
    }
    std::vector<coflow::PortId> mappers;
    for (int m = 0; m < num_mappers; ++m) {
      long rack = 0;
      if (!(is >> rack)) throw std::runtime_error("coflow-benchmark trace: bad mapper");
      mappers.push_back(parsePort(rack, "mapper"));
    }
    int num_reducers = 0;
    if (!(is >> num_reducers) || num_reducers <= 0) {
      throw std::runtime_error("coflow-benchmark trace: bad reducer count");
    }

    coflow::JobSpec job;
    job.id = job_id;
    job.arrival = arrival_ms * util::kMillisecond;
    coflow::CoflowSpec spec;
    spec.id = {job_id, 0};
    for (int r = 0; r < num_reducers; ++r) {
      std::string token;
      if (!(is >> token)) throw std::runtime_error("coflow-benchmark trace: bad reducer");
      const auto colon = token.find(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("coflow-benchmark trace: reducer missing ':' in '" +
                                 token + "'");
      }
      const auto reducer = parsePort(std::stol(token.substr(0, colon)), "reducer");
      const double total_mb = std::stod(token.substr(colon + 1));
      if (total_mb <= 0) {
        throw std::runtime_error("coflow-benchmark trace: non-positive shuffle size");
      }
      // Every mapper contributes an equal share of this reducer's input.
      const util::Bytes per_mapper =
          total_mb * util::kMB / static_cast<double>(mappers.size());
      for (const auto mapper : mappers) {
        spec.flows.push_back(coflow::FlowSpec{mapper, reducer, per_mapper, 0});
      }
    }
    job.coflows.push_back(std::move(spec));
    wl.jobs.push_back(std::move(job));
  }
  wl.validate();
  return wl;
}

coflow::Workload readCoflowBenchmarkTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("readCoflowBenchmarkTraceFile: cannot open " + path);
  }
  return readCoflowBenchmarkTrace(in);
}

}  // namespace aalo::workload
