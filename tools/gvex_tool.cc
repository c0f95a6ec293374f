// gvex_tool: the GVEX pipeline as a command-line utility. Run it with no
// arguments for every command's synopsis (src/gvex/cli/cli.cc).
#include <string>
#include <vector>

#include "gvex/cli/cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return gvex::cli::Run(args);
}
