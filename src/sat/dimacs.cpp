#include "sat/dimacs.h"

#include <ostream>
#include <sstream>

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

std::string to_dimacs_string(const Cnf& cnf, const std::vector<std::string>& comments) {
  std::ostringstream out;
  write_dimacs(out, cnf, comments);
  return out.str();
}

}  // namespace ct::sat
