// flight_dump — decode and render a flight-recorder dump (DESIGN.md §17).
//
//   flight_dump FILE             render FLIGHT.bin from disk
//   flight_dump --port N [--host ADDR] [--out FILE]
//                                fetch the live rings via kQueryFlight
//
// Prints the human rendering to stdout. Exit codes: 0 decodable (even
// with a checksum mismatch, which is reported in the rendering and via
// exit 3), 1 undecodable or unreachable daemon, 2 usage error. --out
// additionally saves the fetched binary image for later offline decoding.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "daemon/sensor_client.hpp"
#include "telemetry/flight.hpp"

int main(int argc, char** argv) {
  std::string path;
  std::string host = "127.0.0.1";
  std::string out;
  std::uint16_t port = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "flight_dump: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<std::uint16_t>(tls::cli::parse_flag(
          "flight_dump", "--port", need("--port"), 1, 65535));
    } else if (arg == "--host") {
      host = need("--host");
    } else if (arg == "--out") {
      out = need("--out");
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "flight_dump: unknown flag " << arg << "\n";
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty() == (port == 0)) {
    std::cerr << "flight_dump: pass exactly one of FILE or --port N\n";
    return 2;
  }

  std::vector<std::uint8_t> image;
  if (port != 0) {
    tls::daemon::SensorClient client;
    std::optional<std::string> reply;
    if (client.connect(host, port)) {
      reply = client.query(tls::daemon::FrameType::kQueryFlight);
    }
    if (!reply) {
      std::cerr << "flight_dump: daemon at " << host << ":" << port
                << " did not answer kQueryFlight\n";
      return 1;
    }
    image.assign(reply->begin(), reply->end());
    if (image.empty()) {
      std::cerr << "flight_dump: daemon at " << host << ":" << port
                << " sent an empty flight image\n";
      return 1;
    }
    if (!out.empty()) {
      std::ofstream file(out, std::ios::binary);
      file.write(reinterpret_cast<const char*>(image.data()),
                 static_cast<std::streamsize>(image.size()));
    }
  } else {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::cerr << "flight_dump: cannot open " << path << "\n";
      return 1;
    }
    image.assign(std::istreambuf_iterator<char>(file),
                 std::istreambuf_iterator<char>());
  }

  const auto dump = tls::telemetry::decode_flight(
      {image.data(), image.size()});
  std::cout << tls::telemetry::render_flight({image.data(), image.size()});
  if (!dump.ok) {
    std::cerr << "flight_dump: image is not a decodable flight dump\n";
    return 1;
  }
  return dump.checksum_ok ? 0 : 3;
}
