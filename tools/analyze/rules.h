#ifndef MARLIN_TOOLS_ANALYZE_RULES_H_
#define MARLIN_TOOLS_ANALYZE_RULES_H_

#include <memory>

#include "rule.h"

namespace marlin {
namespace analyze {

std::unique_ptr<Rule> MakeLayeringRule();
std::unique_ptr<Rule> MakeActorBlockingRule();
std::unique_ptr<Rule> MakeFaultPointRule();
std::unique_ptr<Rule> MakeMessageHygieneRule();
std::unique_ptr<Rule> MakeMetricNameRule();
// The virtual-time contract (DESIGN.md §13): no wall clocks or real sleeps
// outside the util/clock.h seam and the Config::raw_clock_files substrates.
std::unique_ptr<Rule> MakeRawClockRule();
// The four rules migrated from the original grep-based lint script.
std::unique_ptr<Rule> MakeNoRawThreadRule();
std::unique_ptr<Rule> MakeNoNakedNewRule();
std::unique_ptr<Rule> MakeNoPlainCounterRule();
std::unique_ptr<Rule> MakeNoRawSocketRule();

}  // namespace analyze
}  // namespace marlin

#endif  // MARLIN_TOOLS_ANALYZE_RULES_H_
