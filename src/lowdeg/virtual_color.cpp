#include "lowdeg/virtual_color.hpp"

#include "common/assert.hpp"
#include "lowdeg/lowdeg.hpp"

namespace ccg::lowdeg {

void run_virtual(color::State& st, const cluster::VirtualGraph& vg) {
  CCG_CHECK_MSG(&st.rt->cg() == &vg.representation(),
                "run_virtual: state must be bound to vg.representation()");
  // Both pipelines end in check_proper_total on st.h(), which is vg.h()
  // (the representation's H), so the result is validated once.
  if (st.rt->delta() >= st.params.delta_low(st.h().n())) {
    color::run_high_degree(st);
  } else {
    run_low_degree(st);
  }
}

VirtualResult color_virtual_graph(const cluster::VirtualGraph& vg,
                                  const color::Params& params) {
  net::Ledger ledger(vg.default_bandwidth());
  cluster::Runtime rt(vg.representation(), ledger);
  color::State st(rt, params);
  run_virtual(st, vg);
  VirtualResult out;
  out.base = color::finalize_result(st);
  out.congestion = vg.congestion();
  out.g_rounds_with_congestion =
      out.base.g_rounds * static_cast<std::int64_t>(out.congestion);
  return out;
}

}  // namespace ccg::lowdeg
