// GoogLeNet for CIFAR-10: a 3x3 stem and the nine inception modules
// (3a..5b) with the original branch channel table, width-scaled. The 5x5
// branches run on the direct engine under Winograd policies, so GoogLeNet
// exercises mixed-engine execution.
#include "nn/dataset.h"
#include "nn/models/zoo.h"

namespace winofault {
namespace {

struct InceptionSpec {
  std::int64_t b1;        // 1x1 branch
  std::int64_t b3r, b3;   // 3x3 reduce, 3x3
  std::int64_t b5r, b5;   // 5x5 reduce, 5x5
  std::int64_t pool_proj; // pool -> 1x1 branch
};

int inception(Network& net, Rng& rng, int input, const InceptionSpec& spec,
              double width) {
  const auto ch = [width](std::int64_t base) {
    return scaled_channels(base, width);
  };
  const int b1 = net.add_conv(input, ch(spec.b1), 1, 1, 0, rng);
  int b3 = net.add_conv(input, ch(spec.b3r), 1, 1, 0, rng);
  b3 = net.add_conv(b3, ch(spec.b3), 3, 1, 1, rng);
  int b5 = net.add_conv(input, ch(spec.b5r), 1, 1, 0, rng);
  b5 = net.add_conv(b5, ch(spec.b5), 5, 1, 2, rng);
  int bp = net.add_maxpool(input, 3, 1, 1);
  bp = net.add_conv(bp, ch(spec.pool_proj), 1, 1, 0, rng);
  return net.add_concat({b1, b3, b5, bp});
}

}  // namespace

Network make_googlenet(const ZooConfig& config) {
  Network net("googlenet", config.dtype);
  Rng rng(config.seed + 3);

  int x = net.add_input(Shape{1, 3, 32, 32});
  x = net.add_conv(x, scaled_channels(192, config.width), 3, 1, 1, rng);

  const InceptionSpec table_3[] = {{64, 96, 128, 16, 32, 32},
                                   {128, 128, 192, 32, 96, 64}};
  const InceptionSpec table_4[] = {{192, 96, 208, 16, 48, 64},
                                   {160, 112, 224, 24, 64, 64},
                                   {128, 128, 256, 24, 64, 64},
                                   {112, 144, 288, 32, 64, 64},
                                   {256, 160, 320, 32, 128, 128}};
  const InceptionSpec table_5[] = {{256, 160, 320, 32, 128, 128},
                                   {384, 192, 384, 48, 128, 128}};

  for (const auto& spec : table_3) x = inception(net, rng, x, spec, config.width);
  x = net.add_maxpool(x, 2, 2);  // 32 -> 16
  for (const auto& spec : table_4) x = inception(net, rng, x, spec, config.width);
  x = net.add_maxpool(x, 2, 2);  // 16 -> 8
  for (const auto& spec : table_5) x = inception(net, rng, x, spec, config.width);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 10, rng);
  net.set_output(x);

  net.calibrate(make_images(net.input_shape(), config.calib_images,
                            config.seed ^ 0x900913ULL));
  return net;
}

}  // namespace winofault
