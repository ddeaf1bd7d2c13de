#include "sat/dimacs.h"

#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ct::sat {

void write_dimacs(std::ostream& out, const Cnf& cnf,
                  const std::vector<std::string>& comments) {
  for (const auto& comment : comments) out << "c " << comment << "\n";
  out << "p cnf " << cnf.num_vars << " " << cnf.clauses.size() << "\n";
  for (const auto& clause : cnf.clauses) {
    for (const Lit l : clause) out << l.to_dimacs() << " ";
    out << "0\n";
  }
}

Cnf read_dimacs(std::istream& in) {
  Cnf cnf;
  bool have_header = false;
  std::int64_t declared_clauses = 0;
  std::string line;
  std::vector<Lit> current;

  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      // One problem line only: a second one could shrink num_vars below
      // literals already parsed.
      if (have_header) throw std::runtime_error("read_dimacs: second problem line: " + line);
      std::istringstream hs(line);
      std::string p, fmt;
      hs >> p >> fmt >> cnf.num_vars >> declared_clauses;
      if (!hs || fmt != "cnf" || cnf.num_vars < 0 || declared_clauses < 0) {
        throw std::runtime_error("read_dimacs: malformed problem line: " + line);
      }
      if (cnf.num_vars > kMaxVars) {
        throw std::runtime_error("read_dimacs: more variables than a literal can encode: " +
                                 line);
      }
      have_header = true;
      continue;
    }
    if (!have_header) {
      throw std::runtime_error("read_dimacs: clause before problem line");
    }
    std::istringstream ls(line);
    std::int64_t d = 0;
    while (ls >> d) {
      if (d == 0) {
        cnf.clauses.push_back(current);
        current.clear();
        continue;
      }
      const std::int64_t v = d > 0 ? d : -d;
      if (v > cnf.num_vars) {
        throw std::runtime_error("read_dimacs: literal out of range: " + std::to_string(d));
      }
      current.push_back(Lit::from_dimacs(static_cast<std::int32_t>(d)));
    }
  }
  if (!have_header) throw std::runtime_error("read_dimacs: missing problem line");
  if (!current.empty()) throw std::runtime_error("read_dimacs: unterminated clause");
  return cnf;
}

std::string to_dimacs_string(const Cnf& cnf, const std::vector<std::string>& comments) {
  std::ostringstream out;
  write_dimacs(out, cnf, comments);
  return out.str();
}

Cnf from_dimacs_string(const std::string& text) {
  std::istringstream in(text);
  return read_dimacs(in);
}

}  // namespace ct::sat
