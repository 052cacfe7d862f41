#include "core/dl_workspace.h"

namespace dlm::core {

void dl_workspace::prepare(std::size_t n) {
  u.resize(n);
  u_next.resize(n);
  lap.resize(n);
  rhs.resize(n);
  scratch.resize(n);
  node_x.resize(n);
  mod.resize(n);
  rt.resize(n);
  r_int.resize(n);
  rt_react.resize(n);
  rk4.prepare(n);
}

}  // namespace dlm::core
