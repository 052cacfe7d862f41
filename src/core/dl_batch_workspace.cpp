#include "core/dl_batch_workspace.h"

namespace dlm::core {

void dl_batch_workspace::prepare(std::size_t n, std::size_t width,
                                 dl_scheme scheme) {
  const std::size_t soa = n * width;
  u.resize(soa);
  rhs.resize(soa);

  lane_d.resize(width);
  lane_k.resize(width);

  mod_rows.resize(soa);
  rt_rows.resize(soa);

  node_x.resize(n);
  row.resize(n);

  if (scheme == dl_scheme::strang_cn) {
    const std::size_t off = (n - 1) * width;
    cn_dm.resize(soa);
    cn_fp.resize(soa);
    cn_lm.resize(off);
    cn_um.resize(off);
    cn_fl.resize(off);
    cn_fc.resize(off);
    growth1.resize(soa);
    growth2.resize(soa);
  }
  if (scheme == dl_scheme::implicit_newton) {
    u_next.resize(soa);
    newton_g.resize(soa);
    newton_c.resize(soa);
  }
}

dl_batch_workspace& thread_batch_workspace() {
  thread_local dl_batch_workspace workspace;
  return workspace;
}

}  // namespace dlm::core
