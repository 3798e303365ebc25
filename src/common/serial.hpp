/**
 * @file
 * The JSON round-trip convention shared by every machine-read
 * artifact in the repo. A serializable type provides
 *
 *   Json     toJson() const;            // deterministic, exact
 *   static T fromJson(const Json &);    // fatal on bad shape
 *
 * and implements both from one field list: a generic lambda that
 * names each (key, member) pair once, in key order.
 *
 *   constexpr auto kFields = [](auto &s, auto &v) {
 *       v.schema("rap.example.v1");       // optional leading token
 *       v("gpuCount", s.gpuCount);
 *       v("kind", s.kind, serial::Token{jobKindId, jobKindFromId});
 *   };
 *   Json T::toJson() const { return serial::write(*this, kFields); }
 *   T T::fromJson(const Json &json)
 *   { return serial::read<T>(json, kFields, "T"); }
 *
 * write() runs the list with a Writer and read() with a Reader, so the
 * two directions cannot disagree on a key, its order or its cast. The
 * dialect:
 *
 *  - a leading `schema` version token, required and checked on read,
 *    so a v2 payload can never be silently misread as v1;
 *  - bools, numbers and strings as themselves; every number is a
 *    double written by common/json.hpp's shortest-round-trip writer,
 *    so fromJson(toJson(x)) == x exactly — resume determinism and CI
 *    byte-diffs depend on this;
 *  - a member with its own toJson()/fromJson() nests through them; a
 *    plain struct nests through Object over its own field list;
 *  - enums as their stable id tokens (Token);
 *  - 64-bit seeds either carry a 53-bit mask applied at synthesis or
 *    travel as decimal strings (Decimal);
 *  - vectors as arrays, optionals as their value or explicit null
 *    ("never measured", never a fabricated zero). A codec given for a
 *    vector or optional member applies to its elements.
 *
 * A codec is any type with `Json write(const T &) const` and
 * `void read(const Json &, T &) const`; a codec of a write-only
 * artifact may leave out read(). Every listed key is required on read.
 */

#ifndef RAP_COMMON_SERIAL_HPP
#define RAP_COMMON_SERIAL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"

namespace rap::serial {

/** The key of the leading version token. */
constexpr const char *kSchemaKey = "schema";

/** Scalars as themselves; types with toJson()/fromJson() nest. */
struct Plain
{
    template <class T>
    Json write(const T &value) const
    {
        if constexpr (requires { value.toJson(); })
            return value.toJson();
        else
            return Json(value);
    }

    template <class T>
    void read(const Json &json, T &value) const
    {
        if constexpr (requires { T::fromJson(json); })
            value = T::fromJson(json);
        else if constexpr (std::is_same_v<T, bool>)
            value = json.asBool();
        else if constexpr (std::is_same_v<T, std::string>)
            value = json.asString();
        else
            value = static_cast<T>(json.asDouble());
    }
};

/** An enum as its id token: toId(value) and fromId(token). */
template <class ToId, class FromId>
struct Token
{
    ToId toId;
    FromId fromId;

    template <class T>
    Json write(const T &value) const
    {
        return Json(toId(value));
    }

    template <class T>
    void read(const Json &json, T &value) const
    {
        const std::string &id = json.asString();
        const auto parsed = fromId(id);
        if constexpr (std::is_same_v<std::decay_t<decltype(parsed)>, T>) {
            value = parsed;
        } else {
            // An optional-returning parser: nullopt is an unknown id.
            if (!parsed)
                RAP_FATAL("unknown id '", id, "'");
            value = *parsed;
        }
    }
};

/** A 64-bit integer as a decimal string: exact beyond 53 bits. */
struct Decimal
{
    Json write(std::uint64_t value) const
    {
        return Json(std::to_string(value));
    }

    void read(const Json &json, std::uint64_t &value) const
    {
        value = std::stoull(json.asString());
    }
};

template <class T, class Codec>
Json
put(const T &value, const Codec &codec)
{
    return codec.write(value);
}

template <class T, class Codec>
Json
put(const std::vector<T> &values, const Codec &codec)
{
    Json array = Json::array();
    for (const T &value : values)
        array.push(put(value, codec));
    return array;
}

template <class T, class Codec>
Json
put(const std::optional<T> &value, const Codec &codec)
{
    return value ? put(*value, codec) : Json();
}

template <class T, class Codec>
void
take(const Json &json, T &value, const Codec &codec)
{
    codec.read(json, value);
}

template <class T, class Codec>
void
take(const Json &json, std::vector<T> &values, const Codec &codec)
{
    values.clear();
    for (const Json &element : json.elements())
        take(element, values.emplace_back(), codec);
}

template <class T, class Codec>
void
take(const Json &json, std::optional<T> &value, const Codec &codec)
{
    value.reset();
    if (!json.isNull())
        take(json, value.emplace(), codec);
}

/** Field-list visitor that fills a JSON object, in list order. */
class Writer
{
  public:
    explicit Writer(Json &out) : out_(out) {}

    void schema(const char *token) { out_.set(kSchemaKey, Json(token)); }

    template <class T, class Codec = Plain>
    void operator()(const char *key, const T &value,
                    const Codec &codec = {})
    {
        out_.set(key, put(value, codec));
    }

  private:
    Json &out_;
};

/** Field-list visitor that reads every listed key back. */
class Reader
{
  public:
    explicit Reader(const Json &in) : in_(in) {}

    void schema(const char *token)
    {
        const std::string &found = in_.at(kSchemaKey).asString();
        if (found != token)
            RAP_FATAL("expected schema '", token, "', found '", found, "'");
    }

    template <class T, class Codec = Plain>
    void operator()(const char *key, T &value, const Codec &codec = {})
    {
        take(in_.at(key), value, codec);
    }

  private:
    const Json &in_;
};

/** @return @p value written as a JSON object through @p fields. */
template <class T, class Fields>
Json
write(const T &value, const Fields &fields)
{
    Json json = Json::object();
    Writer writer(json);
    fields(value, writer);
    return json;
}

/** @return A T read from @p json through @p fields; fatal on bad shape. */
template <class T, class Fields>
T
read(const Json &json, const Fields &fields, const char *what)
{
    if (!json.isObject())
        RAP_FATAL("expected a JSON object for ", what);
    T value;
    Reader reader(json);
    fields(value, reader);
    return value;
}

/** A plain struct nested as an object through its own field list. */
template <class Fields>
struct Object
{
    Fields fields;

    template <class T>
    Json write(const T &value) const
    {
        return serial::write(value, fields);
    }

    template <class T>
    void read(const Json &json, T &value) const
    {
        value = serial::read<T>(json, fields, "a nested member");
    }
};

} // namespace rap::serial

#endif // RAP_COMMON_SERIAL_HPP
