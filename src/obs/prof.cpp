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

Status parse_node(const JsonValue& jn, ProfileNode* out) {
  if (jn.kind != JsonValue::Kind::kObject) {
    return Status::invalid_argument("profile: tree node is not an object");
  }
  const JsonValue* name = jn.find("name");
  if (name == nullptr || name->kind != JsonValue::Kind::kString) {
    return Status::invalid_argument("profile: tree node without a name");
  }
  out->name = name->string;
  out->count = jn.int_field("count");
  out->wall_ns = jn.int_field("wall_ns");
  out->cpu_ns = jn.int_field("cpu_ns");
  out->excl_wall_ns = jn.int_field("excl_wall_ns");
  out->excl_cpu_ns = jn.int_field("excl_cpu_ns");
  out->alloc_count = jn.int_field("alloc_count");
  out->alloc_bytes = jn.int_field("alloc_bytes");
  const std::vector<JsonValue>& children = jn.array_field("children");
  out->children.resize(children.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    const Status st = parse_node(children[i], &out->children[i]);
    if (!st.is_ok()) return st;
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
  if (root->string_field("schema") != kProfileSchemaName) {
    return Status::invalid_argument(
        "profile: missing or wrong \"schema\" (want gridsec.profile)");
  }
  if (root->int_field("schema_version", -1) != kProfileSchemaVersion) {
    return Status::invalid_argument(
        "profile: unsupported schema_version (want " +
        std::to_string(kProfileSchemaVersion) + ")");
  }
  Profile p;
  p.threads = root->int_field("threads");
  if (const JsonValue* alloc = root->find("alloc")) {
    p.alloc.count = alloc->int_field("count");
    p.alloc.bytes = alloc->int_field("bytes");
    p.alloc.live_bytes = alloc->int_field("live_bytes");
    p.alloc.peak_bytes = alloc->int_field("peak_bytes");
  }
  if (const JsonValue* pool = root->find("pool")) {
    p.pool_busy_ns = pool->int_field("busy_ns");
    p.pool_idle_ns = pool->int_field("idle_ns");
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
