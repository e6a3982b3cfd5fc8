#include "linecard/telemetry.hpp"

namespace p5::linecard {

Telemetry::Telemetry(std::size_t channels) {
  per_channel_.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i)
    per_channel_.push_back(std::make_unique<ChannelTelemetry>());
}

ChannelSnapshot Telemetry::snapshot(std::size_t i) const { return per_channel_[i]->snapshot(); }

ChannelSnapshot Telemetry::aggregate() const {
  ChannelSnapshot sum;
  for (const auto& ch : per_channel_) sum += ch->snapshot();
  return sum;
}

}  // namespace p5::linecard
