// The gvex_tool command-line front end. Each command's flags are defined
// once, in the kCommands table in cli.cc: `gvex_tool` with no command
// prints every row, and README.md "Command-line tool" explains them.
#pragma once

#include <string>
#include <vector>

namespace gvex {
namespace cli {

/// Run the tool; argv excludes the program name. Output goes to stdout,
/// diagnostics to stderr. Returns a process exit code.
int Run(const std::vector<std::string>& argv);

}  // namespace cli
}  // namespace gvex
