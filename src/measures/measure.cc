#include "measures/measure.h"

namespace flos {

Direction MeasureDirection(Measure m) {
  switch (m) {
    case Measure::kPhp:
    case Measure::kEi:
    case Measure::kRwr:
      return Direction::kMaximize;
    case Measure::kDht:
    case Measure::kTht:
      return Direction::kMinimize;
  }
  return Direction::kMaximize;
}

bool HasNoLocalOptimum(Measure m) {
  switch (m) {
    case Measure::kPhp:
    case Measure::kEi:
    case Measure::kDht:
    case Measure::kTht:
      return true;
    case Measure::kRwr:
      return false;
  }
  return false;
}

std::string MeasureName(Measure m) {
  switch (m) {
    case Measure::kPhp:
      return "PHP";
    case Measure::kEi:
      return "EI";
    case Measure::kDht:
      return "DHT";
    case Measure::kTht:
      return "THT";
    case Measure::kRwr:
      return "RWR";
  }
  return "?";
}

Result<Measure> ParseMeasure(const std::string& name) {
  if (name == "php") return Measure::kPhp;
  if (name == "ei") return Measure::kEi;
  if (name == "dht") return Measure::kDht;
  if (name == "tht") return Measure::kTht;
  if (name == "rwr") return Measure::kRwr;
  return Status::InvalidArgument("unknown measure '" + name +
                                 "' (expected php|ei|dht|tht|rwr)");
}

}  // namespace flos
