#include "types.hh"

#include <cstddef>

#include "parse.hh"

namespace shrimp::analyze
{

namespace
{

/** Statement-leading keywords that can never start a declaration we
 *  care about. */
bool
neverStartsDecl(const std::string &s)
{
    static const std::set<std::string> kw = {
        "return", "co_return", "co_await", "co_yield", "delete",
        "throw", "goto", "break", "continue", "if", "else", "for",
        "while", "do", "switch", "case", "default", "using", "typedef",
        "static_assert", "friend", "public", "private", "protected",
        "template", "new", "operator", "namespace", "enum", "extern",
        "asm", "try", "catch", "sizeof", "struct", "class", "union",
    };
    return kw.count(s) != 0;
}

/**
 * Classify the statement tokens [lo, hi) as a variable declaration
 * `TYPE name ;` / `TYPE name = init` / `TYPE name { init }` (with
 * @p hi pointing at the terminator/initializer). Returns true and
 * fills @p name/@p type on success.
 */
bool
classifyDecl(const Tokens &toks, std::size_t lo, std::size_t hi,
             std::string &name, std::string &type)
{
    if (hi <= lo + 1 || hi > toks.size())
        return false;
    if (!toks[lo].ident() || neverStartsDecl(toks[lo].text))
        return false;

    // Find where the declared name ends: at a top-level `=` or at the
    // statement end. Reject call/array/multi-declarator shapes.
    std::size_t declEnd = hi;
    int angle = 0;
    for (std::size_t k = lo; k < hi; ++k) {
        const Token &t = toks[k];
        if (t.is("<"))
            ++angle;
        else if (t.is(">"))
            --angle;
        else if (angle > 0)
            continue;
        else if (t.is("=")) {
            declEnd = k;
            break;
        } else if (t.is("(") || t.is("[") || t.is(",") || t.is(".") ||
                   t.is("->") || t.is("{"))
            return false;
    }
    if (declEnd < lo + 2)
        return false;
    const Token &last = toks[declEnd - 1];
    if (!last.ident() || neverStartsDecl(last.text))
        return false;
    const Token &prev = toks[declEnd - 2];
    if (prev.is("::"))
        return false; // qualified name: an expression, not a decl
    name = last.text;
    type = typeText(toks, lo, declEnd - 1);
    if (type.empty())
        return false;
    return true;
}

/** Scan [lo, hi) statement-by-statement (skipping nested braces and
 *  parens) and report each variable declaration found. */
template <typename Fn>
void
scanDecls(const Tokens &toks, std::size_t lo, std::size_t hi,
          bool skipBraces, Fn &&emit)
{
    std::size_t stmt = lo;
    for (std::size_t k = lo; k < hi && k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.is("(") || t.is("[")) {
            k = skipBalanced(toks, k) - 1;
            continue;
        }
        if (t.is("{")) {
            // `TYPE name { init };` declares too; classify up to here.
            std::string name, type;
            if (classifyDecl(toks, stmt, k, name, type))
                emit(name, type, toks[stmt].line);
            if (skipBraces) {
                k = skipBalanced(toks, k) - 1;
                stmt = k + 1;
            } else {
                stmt = k + 1;
            }
            continue;
        }
        if (t.is("}") || t.is(";") || t.is(":")) {
            if (t.is(";")) {
                std::string name, type;
                if (classifyDecl(toks, stmt, k, name, type))
                    emit(name, type, toks[stmt].line);
            }
            stmt = k + 1;
            continue;
        }
    }
}

} // namespace

void
extractTypes(SourceFile &f)
{
    // Class data members: scan each class body, skipping everything
    // brace-nested (method bodies, nested classes register their own
    // ClassDef and are scanned separately).
    for (const ClassDef &cd : f.classes) {
        scanDecls(f.toks, cd.bodyBegin + 1,
                  cd.bodyEnd > 0 ? cd.bodyEnd - 1 : cd.bodyBegin + 1,
                  /*skipBraces=*/true,
                  [&](const std::string &name, const std::string &type,
                      int line) {
                      f.fields.push_back({cd.name, name, type, line});
                  });
    }
    // Function-body locals: nested blocks are statements too, so
    // braces are not skipped (lambda bodies included — their locals
    // just join the enclosing function's scope, which is the right
    // granularity for the statement-level rules).
    for (FnDef &fn : f.fns) {
        scanDecls(f.toks, fn.bodyBegin + 1,
                  fn.bodyEnd > 0 ? fn.bodyEnd - 1 : fn.bodyBegin + 1,
                  /*skipBraces=*/false,
                  [&](const std::string &name, const std::string &type,
                      int line) {
                      fn.locals.push_back({name, type, line});
                  });
    }
}

std::string
TypeIndex::resolve(const std::string &type) const
{
    std::string t = stripCv(type);
    for (int guard = 0; guard < 8; ++guard) {
        auto it = aliases.find(t);
        if (it == aliases.end())
            return t;
        t = stripCv(it->second);
    }
    return t;
}

void
buildTypeIndex(Project &p)
{
    TypeIndex &ix = p.types;
    for (const SourceFile &f : p.files)
        for (const auto &[name, type] : f.aliases)
            ix.aliases.emplace(name, type); // first definition wins

    for (const SourceFile &f : p.files) {
        for (const FieldDecl &fd : f.fields)
            if (!fd.className.empty() && fd.className != "?")
                ix.fields[fd.className].emplace(fd.name, fd.type);
        for (const MemberDecl &d : f.members)
            if (!d.className.empty() && d.className != "?" &&
                !d.retType.empty())
                ix.methods[d.className].emplace(d.name, d.retType);
    }

    // Free functions: only names every declaration agrees on.
    std::map<std::string, std::pair<std::string, bool>> free; // type, ok
    for (const SourceFile &f : p.files) {
        for (const FnDef &d : f.fns) {
            if (!d.className.empty() || d.retType.empty())
                continue;
            auto [it, fresh] = free.emplace(d.name,
                                            std::make_pair(d.retType,
                                                           true));
            if (!fresh && it->second.first != d.retType)
                it->second.second = false;
        }
    }
    for (const auto &[name, tv] : free)
        if (tv.second)
            ix.freeFns.emplace(name, tv.first);
}

std::string
stripCv(const std::string &type)
{
    std::string t = type;
    auto stripPrefix = [&](const char *p) {
        const std::size_t n = std::string(p).size();
        if (t.compare(0, n, p) == 0)
            t = t.substr(n);
    };
    for (int i = 0; i < 3; ++i) {
        stripPrefix("const ");
        stripPrefix("volatile ");
        stripPrefix("static ");
    }
    while (!t.empty() &&
           (t.back() == '&' || t.back() == '*' || t.back() == ' '))
        t.pop_back();
    // "const" glued to a trailing ref has already gone with the '&'.
    if (t.size() > 5 && t.compare(t.size() - 5, 5, "const") == 0 &&
        t[t.size() - 6] == ' ')
        t = t.substr(0, t.size() - 6);
    return t;
}

namespace
{

/** The outermost template name of @p type ("std::vector<X>" ->
 *  "vector"), or the last `::` component when not a template. */
std::string
outerName(const std::string &type)
{
    const std::size_t lt = type.find('<');
    std::string head = lt == std::string::npos ? type
                                               : type.substr(0, lt);
    const std::size_t colons = head.rfind("::");
    if (colons != std::string::npos)
        head = head.substr(colons + 2);
    while (!head.empty() && head.back() == ' ')
        head.pop_back();
    return head;
}

/** Top-level template arguments of @p type, split on depth-1 commas. */
std::vector<std::string>
templateArgs(const std::string &type)
{
    std::vector<std::string> out;
    const std::size_t lt = type.find('<');
    if (lt == std::string::npos)
        return out;
    int depth = 0;
    std::size_t start = lt + 1;
    for (std::size_t i = lt; i < type.size(); ++i) {
        const char c = type[i];
        if (c == '<') {
            ++depth;
        } else if (c == '>') {
            if (--depth == 0) {
                if (i > start)
                    out.push_back(type.substr(start, i - start));
                break;
            }
        } else if (c == ',' && depth == 1) {
            out.push_back(type.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

const std::set<std::string> taskContainers = {
    "vector", "deque", "list", "array", "queue", "stack",
    "optional", "map", "unordered_map", "multimap", "set",
    "initializer_list", "span", "pair", "tuple",
};

const std::set<std::string> ptrWrappers = {
    "unique_ptr", "shared_ptr", "reference_wrapper", "optional",
};

} // namespace

bool
typeIsTask(const TypeIndex &ix, const std::string &type)
{
    const std::string t = ix.resolve(type);
    return outerName(t) == "Task" && t.find('<') != std::string::npos;
}

bool
typeIsTaskContainer(const TypeIndex &ix, const std::string &type)
{
    const std::string t = ix.resolve(type);
    if (taskContainers.count(outerName(t)) == 0)
        return false;
    for (const std::string &arg : templateArgs(t))
        if (typeIsTask(ix, arg) || typeIsTaskContainer(ix, arg))
            return true;
    return false;
}

std::string
typeClassName(const TypeIndex &ix, const std::string &type)
{
    std::string t = ix.resolve(type);
    for (int guard = 0; guard < 4; ++guard) {
        if (ptrWrappers.count(outerName(t)) != 0) {
            const auto args = templateArgs(t);
            if (args.empty())
                return "";
            t = ix.resolve(args[0]);
            continue;
        }
        break;
    }
    if (t.find('<') != std::string::npos)
        return ""; // other templates: not a project class
    return outerName(t);
}

std::string
subscriptType(const TypeIndex &ix, const std::string &type)
{
    static const std::set<std::string> sequences = {
        "vector", "deque", "array",
    };
    const std::string t = ix.resolve(type);
    const auto args = templateArgs(t);
    if (sequences.count(outerName(t)) == 0 || args.empty())
        return "";
    return args[0];
}

} // namespace shrimp::analyze
