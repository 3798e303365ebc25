/**
 * @file
 * CI gate for the `--metrics` artifact: validates metrics snapshots
 * against the checked-in schema (schemas/metrics.schema.json).
 *
 *   validate_metrics <schema.json> <snapshot.json> [snapshot.json...]
 *
 * The validator interprets the JSON-Schema subset the schema file
 * actually uses (type / const / enum / required / properties / items /
 * minItems / maxItems / minimum), and additionally enforces the one
 * contract a schema cannot express: entries in every section must be
 * sorted by (name, labels), which is what makes snapshots diffable
 * across thread counts. Exits 0 when every snapshot passes, 1 with
 * one line per violation otherwise.
 */

#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace {

using rap::Json;

/** Collects violations as "path: message" lines. */
struct Violations
{
    std::vector<std::string> lines;

    void
    add(const std::string &path, const std::string &message)
    {
        lines.push_back(path + ": " + message);
    }
};

std::string
typeName(const Json &value)
{
    switch (value.type()) {
    case Json::Type::Null:
        return "null";
    case Json::Type::Bool:
        return "boolean";
    case Json::Type::Number:
        return "number";
    case Json::Type::String:
        return "string";
    case Json::Type::Array:
        return "array";
    case Json::Type::Object:
        return "object";
    }
    return "unknown";
}

bool
matchesType(const Json &value, const std::string &type)
{
    if (type == "integer") {
        return value.isNumber() &&
               std::trunc(value.asDouble()) == value.asDouble();
    }
    return typeName(value) == type;
}

void validate(const Json &value, const Json &schema,
              const std::string &path, Violations &out);

void
validateType(const Json &value, const Json &type,
             const std::string &path, Violations &out)
{
    if (type.isString()) {
        if (!matchesType(value, type.asString())) {
            out.add(path, "expected " + type.asString() + ", got " +
                              typeName(value));
        }
        return;
    }
    // "type": ["number", "null"] — any listed type matches.
    for (const Json &alt : type.elements()) {
        if (matchesType(value, alt.asString()))
            return;
    }
    out.add(path, "value of type " + typeName(value) +
                      " matches none of the allowed types");
}

void
validate(const Json &value, const Json &schema, const std::string &path,
         Violations &out)
{
    if (const Json *expected = schema.find("const")) {
        if (value.dump() != expected->dump())
            out.add(path, "expected constant " + expected->dump() +
                              ", got " + value.dump());
        return;
    }
    if (const Json *allowed = schema.find("enum")) {
        bool matched = false;
        for (const Json &candidate : allowed->elements()) {
            if (value.dump() == candidate.dump()) {
                matched = true;
                break;
            }
        }
        if (!matched) {
            out.add(path, "value " + value.dump() +
                              " not in the allowed enum");
        }
    }
    if (const Json *type = schema.find("type"))
        validateType(value, *type, path, out);

    if (const Json *minimum = schema.find("minimum")) {
        if (value.isNumber() &&
            value.asDouble() < minimum->asDouble()) {
            out.add(path, "value " + value.dump() + " below minimum " +
                              minimum->dump());
        }
    }

    if (value.isObject()) {
        if (const Json *required = schema.find("required")) {
            for (const Json &key : required->elements()) {
                if (value.find(key.asString()) == nullptr) {
                    out.add(path, "missing required member '" +
                                      key.asString() + "'");
                }
            }
        }
        if (const Json *properties = schema.find("properties")) {
            for (const auto &[key, member_schema] :
                 properties->members()) {
                if (const Json *member = value.find(key)) {
                    validate(*member, member_schema,
                             path + "." + key, out);
                }
            }
        }
    }

    if (value.isArray()) {
        if (const Json *min_items = schema.find("minItems")) {
            if (value.size() <
                static_cast<std::size_t>(min_items->asDouble())) {
                out.add(path, "array has " +
                                  std::to_string(value.size()) +
                                  " items, fewer than minItems " +
                                  min_items->dump());
            }
        }
        if (const Json *max_items = schema.find("maxItems")) {
            if (value.size() >
                static_cast<std::size_t>(max_items->asDouble())) {
                out.add(path, "array has " +
                                  std::to_string(value.size()) +
                                  " items, more than maxItems " +
                                  max_items->dump());
            }
        }
        if (const Json *items = schema.find("items")) {
            for (std::size_t i = 0; i < value.size(); ++i) {
                validate(value.at(i), *items,
                         path + "[" + std::to_string(i) + "]", out);
            }
        }
    }
}

/** One entry's sort key: its name, then its label (key, value) pairs. */
using EntryKey =
    std::pair<std::string, std::vector<std::pair<std::string, std::string>>>;

/**
 * Beyond the schema: every section must be sorted by (name, labels) —
 * the exporter's determinism guarantee. Labels compare pair by pair
 * in order, as obs::Labels does, so `{policy=a}` sorts before
 * `{policy=a, run=b}`.
 */
void
checkOrdering(const Json &snapshot, Violations &out)
{
    for (const char *section :
         {"counters", "gauges", "histograms", "series", "spans"}) {
        const Json *entries = snapshot.find(section);
        if (entries == nullptr || !entries->isArray())
            continue;
        EntryKey prev;
        for (std::size_t i = 0; i < entries->size(); ++i) {
            const Json &entry = entries->at(i);
            const Json *name = entry.find("name");
            const Json *labels = entry.find("labels");
            if (name == nullptr || !name->isString() ||
                labels == nullptr || !labels->isObject())
                continue; // the schema pass reports the shape error
            EntryKey key{name->asString(), {}};
            for (const auto &[label, value] : labels->members()) {
                key.second.emplace_back(
                    label, value.isString() ? value.asString()
                                            : value.dump());
            }
            if (i > 0 && key < prev) {
                out.add(std::string(section) + "[" +
                            std::to_string(i) + "]",
                        "entries not sorted by (name, labels): '" +
                            key.first + "' after '" + prev.first +
                            "'");
            }
            prev = std::move(key);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: validate_metrics <schema.json> "
                     "<snapshot.json> [snapshot.json...]\n";
        return 2;
    }

    const Json schema = rap::readJsonFile(argv[1]);
    bool all_ok = true;
    for (int i = 2; i < argc; ++i) {
        const std::string path = argv[i];
        const Json snapshot = rap::readJsonFile(path);
        Violations violations;
        validate(snapshot, schema, "$", violations);
        checkOrdering(snapshot, violations);
        if (violations.lines.empty()) {
            std::cout << path << ": OK\n";
            continue;
        }
        all_ok = false;
        std::cout << path << ": INVALID\n";
        for (const auto &line : violations.lines)
            std::cout << "  " << line << "\n";
    }
    return all_ok ? 0 : 1;
}
