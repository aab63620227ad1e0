/**
 * @file
 * The shrimp_analyze rules. Each pass receives the fully parsed and
 * summarized Project and appends Findings; suppression (annotations
 * aside) is the baseline's job, not the rules'.
 *
 * ruleTable() is the one list of rules: runRules() runs it in order
 * and the SARIF driver describes every entry. Rule names are used in
 * reports, baselines and `analyze: allow(...)` annotations.
 */

#ifndef SHRIMP_TOOLS_ANALYZE_RULES_HH
#define SHRIMP_TOOLS_ANALYZE_RULES_HH

#include "model.hh"

namespace shrimp::analyze
{

/** One rule: its name, a one-sentence description, and its pass. */
struct Rule
{
    const char *name;
    const char *description;
    void (*run)(const Project &p, std::vector<Finding> &out);
};

/** Every rule, in run order. */
const std::vector<Rule> &ruleTable();

void ruleDroppedTask(const Project &p, std::vector<Finding> &out);
void ruleSuspendUnderExclusion(const Project &p, std::vector<Finding> &out);
void ruleDeterminism(const Project &p, std::vector<Finding> &out);
void ruleLayering(const Project &p, std::vector<Finding> &out);
void ruleChargedTime(const Project &p, std::vector<Finding> &out);
void ruleDeadlock(const Project &p, std::vector<Finding> &out);
void ruleTaint(const Project &p, std::vector<Finding> &out);
void ruleCrossNodeEscape(const Project &p, std::vector<Finding> &out);
void ruleCrossNodeDeliverUncharged(const Project &p,
                                   std::vector<Finding> &out);
void ruleCrossNodeWakeUncharged(const Project &p,
                                std::vector<Finding> &out);
void ruleZeroDelayCycle(const Project &p, std::vector<Finding> &out);

/** Layer of a src/ directory in the include order (rule_layering.cc),
 *  or -1 outside the layered simulator dirs. The cross-node rules scan
 *  exactly the layered dirs. */
int layerOf(const std::string &dir);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_RULES_HH
