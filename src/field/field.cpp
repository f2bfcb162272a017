#include "field/field.hpp"

namespace sickle::field {

Field& Snapshot::add(std::string name) {
  SICKLE_CHECK_MSG(!has(name), "duplicate field name: " + name);
  index_[name] = fields_.size();
  fields_.emplace_back(std::move(name), shape_);
  return fields_.back();
}

Field& Snapshot::add(std::string name, std::vector<double> data) {
  SICKLE_CHECK_MSG(!has(name), "duplicate field name: " + name);
  index_[name] = fields_.size();
  fields_.emplace_back(std::move(name), shape_, std::move(data));
  return fields_.back();
}

bool Snapshot::has(const std::string& name) const noexcept {
  return index_.count(name) > 0;
}

const Field& Snapshot::get(const std::string& name) const {
  const auto it = index_.find(name);
  SICKLE_CHECK_MSG(it != index_.end(), "unknown field: " + name);
  return fields_[it->second];
}

Field& Snapshot::get(const std::string& name) {
  const auto it = index_.find(name);
  SICKLE_CHECK_MSG(it != index_.end(), "unknown field: " + name);
  return fields_[it->second];
}

std::vector<std::string> Snapshot::names() const {
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const auto& f : fields_) out.push_back(f.name());
  return out;
}

void Dataset::push(Snapshot snapshot) {
  if (!snapshots_.empty()) {
    SICKLE_CHECK_MSG(snapshot.shape() == snapshots_.front().shape(),
                     "all snapshots in a dataset share one grid");
  }
  snapshots_.push_back(std::move(snapshot));
}

std::size_t Dataset::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& s : snapshots_) total += s.bytes();
  return total;
}

}  // namespace sickle::field
