// The gridsec.profile artifact: JSON and folded-stack export, parsing, and
// flattened rankings. Capture itself lives in recorder.cpp.
#include "gridsec/obs/prof.hpp"

#include <ostream>
#include <vector>

#include "json.hpp"

namespace gridsec::obs {

const ProfileNode* ProfileNode::find(const std::string& child) const {
  for (const ProfileNode& c : children) {
    if (c.name == child) return &c;
  }
  return nullptr;
}

namespace {

void write_node_json(std::ostream& os, const ProfileNode& n) {
  os << "{\"name\":";
  json::write_string(os, n.name);
  os << ",\"count\":" << n.count << ",\"wall_ns\":" << n.wall_ns
     << ",\"cpu_ns\":" << n.cpu_ns << ",\"excl_wall_ns\":" << n.excl_wall_ns
     << ",\"excl_cpu_ns\":" << n.excl_cpu_ns
     << ",\"alloc_count\":" << n.alloc_count
     << ",\"alloc_bytes\":" << n.alloc_bytes << ",\"children\":[";
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    if (i != 0) os << ',';
    write_node_json(os, n.children[i]);
  }
  os << "]}";
}

void fold_node(std::ostream& os, const ProfileNode& n, std::string path,
               ProfileWeight weight) {
  path += n.name;
  const std::int64_t value = profile_weight_value(n, weight);
  if (value > 0) os << path << ' ' << value << '\n';
  path += ';';
  for (const ProfileNode& c : n.children) fold_node(os, c, path, weight);
}

void flatten_node(const ProfileNode& n, std::string path,
                  std::vector<ProfileRow>* out) {
  path += n.name;
  out->push_back({path, &n});
  path += ';';
  for (const ProfileNode& c : n.children) flatten_node(c, path, out);
}

}  // namespace

std::int64_t profile_weight_value(const ProfileNode& node,
                                  ProfileWeight weight) {
  switch (weight) {
    case ProfileWeight::kWallMicros: return node.excl_wall_ns / 1000;
    case ProfileWeight::kCpuMicros: return node.excl_cpu_ns / 1000;
    case ProfileWeight::kAllocCount: return node.alloc_count;
    case ProfileWeight::kAllocBytes: return node.alloc_bytes;
  }
  return 0;
}

void write_profile_json(std::ostream& os, const Profile& profile) {
  os << "{\"schema\":\"" << kProfileSchemaName
     << "\",\"schema_version\":" << profile.schema_version
     << ",\"threads\":" << profile.threads << ",\"alloc\":{\"count\":"
     << profile.alloc.count << ",\"bytes\":" << profile.alloc.bytes
     << ",\"live_bytes\":" << profile.alloc.live_bytes
     << ",\"peak_bytes\":" << profile.alloc.peak_bytes
     << "},\"pool\":{\"busy_ns\":" << profile.pool_busy_ns
     << ",\"idle_ns\":" << profile.pool_idle_ns << "},\"tree\":";
  write_node_json(os, profile.root);
  os << "}\n";
}

void write_profile_folded(std::ostream& os, const Profile& profile,
                          ProfileWeight weight) {
  // The synthetic root is elided: top-level phases are the stack bases.
  for (const ProfileNode& c : profile.root.children) {
    fold_node(os, c, std::string(), weight);
  }
}

std::vector<ProfileRow> flatten_profile(const Profile& profile) {
  std::vector<ProfileRow> out;
  for (const ProfileNode& c : profile.root.children) {
    flatten_node(c, std::string(), &out);
  }
  return out;
}

namespace {

using json::JsonValue;

std::int64_t node_i64(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? static_cast<std::int64_t>(v->number_or(0.0)) : 0;
}

Status parse_node(const JsonValue& jn, ProfileNode* out) {
  if (jn.kind != JsonValue::Kind::kObject) {
    return Status::invalid_argument("profile: tree node is not an object");
  }
  const JsonValue* name = jn.find("name");
  if (name == nullptr || name->kind != JsonValue::Kind::kString) {
    return Status::invalid_argument("profile: tree node without a name");
  }
  out->name = name->string;
  out->count = node_i64(jn, "count");
  out->wall_ns = node_i64(jn, "wall_ns");
  out->cpu_ns = node_i64(jn, "cpu_ns");
  out->excl_wall_ns = node_i64(jn, "excl_wall_ns");
  out->excl_cpu_ns = node_i64(jn, "excl_cpu_ns");
  out->alloc_count = node_i64(jn, "alloc_count");
  out->alloc_bytes = node_i64(jn, "alloc_bytes");
  if (const JsonValue* children = jn.find("children");
      children != nullptr && children->kind == JsonValue::Kind::kArray) {
    out->children.resize(children->array.size());
    for (std::size_t i = 0; i < children->array.size(); ++i) {
      const Status st = parse_node(children->array[i], &out->children[i]);
      if (!st.is_ok()) return st;
    }
  }
  return Status::ok();
}

}  // namespace

StatusOr<Profile> parse_profile(const std::string& json_text) {
  json::JsonParser parser(json_text);
  StatusOr<JsonValue> root = parser.parse();
  if (!root.is_ok()) return root.status();
  if (root->kind != JsonValue::Kind::kObject) {
    return Status::invalid_argument(
        "profile: top-level value is not an object");
  }
  const JsonValue* schema = root->find("schema");
  if (schema == nullptr || schema->string_or("") != kProfileSchemaName) {
    return Status::invalid_argument(
        "profile: missing or wrong \"schema\" (want gridsec.profile)");
  }
  const JsonValue* version = root->find("schema_version");
  if (version == nullptr ||
      static_cast<int>(version->number_or(-1)) != kProfileSchemaVersion) {
    return Status::invalid_argument(
        "profile: unsupported schema_version (want " +
        std::to_string(kProfileSchemaVersion) + ")");
  }
  Profile p;
  p.threads = node_i64(*root, "threads");
  if (const JsonValue* alloc = root->find("alloc");
      alloc != nullptr && alloc->kind == JsonValue::Kind::kObject) {
    p.alloc.count = node_i64(*alloc, "count");
    p.alloc.bytes = node_i64(*alloc, "bytes");
    p.alloc.live_bytes = node_i64(*alloc, "live_bytes");
    p.alloc.peak_bytes = node_i64(*alloc, "peak_bytes");
  }
  if (const JsonValue* pool = root->find("pool");
      pool != nullptr && pool->kind == JsonValue::Kind::kObject) {
    p.pool_busy_ns = node_i64(*pool, "busy_ns");
    p.pool_idle_ns = node_i64(*pool, "idle_ns");
  }
  const JsonValue* tree = root->find("tree");
  if (tree == nullptr) {
    return Status::invalid_argument("profile: missing \"tree\"");
  }
  const Status st = parse_node(*tree, &p.root);
  if (!st.is_ok()) return st;
  return p;
}

}  // namespace gridsec::obs
