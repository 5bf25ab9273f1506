// NN-side checks: tensor shape agreement inside a GraphTensors sample and
// finiteness of all model inputs. Rules: NN001..NN002; see rule_registry().
#pragma once

#include "analysis/diagnostic.hpp"
#include "gnn/convs.hpp"

namespace powergear::analysis {

/// Internal consistency of one packaged sample: index lists in range, per
/// relation edge tensors matched to their index lists, finite values.
Report check_tensors(const gnn::GraphTensors& g);

} // namespace powergear::analysis
