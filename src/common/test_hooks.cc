#include "src/common/test_hooks.h"

namespace wukongs::test_hooks {

std::atomic<bool> off_by_one_window{false};
std::atomic<bool> stale_sn_read{false};
std::atomic<bool> reorder_trace_spans{false};
std::atomic<bool> skip_eviction_listeners{false};
std::atomic<bool> skip_fanout_partition{false};
std::atomic<bool> stale_group_membership{false};
std::atomic<bool> skip_selection_compact{false};
std::atomic<bool> stale_stats_snapshot{false};
std::atomic<bool> skip_parity_gate{false};

}  // namespace wukongs::test_hooks
