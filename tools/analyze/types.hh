/**
 * @file
 * Typed symbol index for shrimp_analyze.
 *
 * Two layers:
 *
 *  - Per-file extraction (extractTypes): class data members (FieldDecl)
 *    and function-body local declarations (FnDef::locals), recognized
 *    by statement shape from the token stream. Runs right after
 *    parseFile() and is cached with the file's other facts.
 *  - Project-wide index (buildTypeIndex): merges aliases (`using X =
 *    Y;`, resolved transitively), class field types, method return
 *    types and unambiguous free-function return types into
 *    Project::types.
 *
 * Classification helpers answer the questions the rules ask of a
 * normalized type string: is it (an alias of) `sim::Task<...>`? a
 * template container holding Tasks? which class does a receiver of
 * this type dispatch to (smart pointers and references unwrapped)?
 */

#ifndef SHRIMP_TOOLS_ANALYZE_TYPES_HH
#define SHRIMP_TOOLS_ANALYZE_TYPES_HH

#include "model.hh"

namespace shrimp::analyze
{

/** Fill @p f.fields and per-function locals from the parsed facts. */
void extractTypes(SourceFile &f);

/** Merge every file's aliases/fields/members into @p p.types. */
void buildTypeIndex(Project &p);

/** Strip const/volatile qualifiers and reference/pointer decoration
 *  from the edges of a normalized type string. */
std::string stripCv(const std::string &type);

/** Is @p type (after alias resolution) `Task<...>` / `sim::Task<...>`? */
bool typeIsTask(const TypeIndex &ix, const std::string &type);

/** Is @p type a known container/wrapper template with a Task type
 *  argument (vector/deque/list/array/optional/map/... of Task)? */
bool typeIsTaskContainer(const TypeIndex &ix, const std::string &type);

/** The class a member access on a value of @p type resolves against:
 *  namespaces stripped, unique_ptr/shared_ptr/pointer/reference
 *  unwrapped. Empty when @p type is not class-shaped. */
std::string typeClassName(const TypeIndex &ix, const std::string &type);

/** The type `x[i]` has when `x` has type @p type: the element of a
 *  vector, deque or array. Empty for any other type. */
std::string subscriptType(const TypeIndex &ix, const std::string &type);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_TYPES_HH
