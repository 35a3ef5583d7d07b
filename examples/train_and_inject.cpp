// Example: the fault-tolerance effect on a *genuinely trained* model.
// Trains a small CNN on the synthetic blob task with the float substrate,
// exports it into the quantized engine, and compares standard vs Winograd
// accuracy under operation-level fault injection — demonstrating that the
// Winograd advantage is not an artifact of random-weight networks.
#include <cstdio>

#include "core/campaign/campaign.h"
#include "train/sgd.h"

using namespace winofault;

int main() {
  TrainConfig config;
  config.in_c = 1;
  config.img = 12;
  config.c1 = 8;
  config.c2 = 8;
  config.classes = 4;

  // One draw shares the class patterns; split into train and held-out test.
  const BlobData all_data = make_blob_data(config, 280, 0.45, 71);
  BlobData train_data, test_data;
  for (std::size_t i = 0; i < all_data.images.size(); ++i) {
    BlobData& dst = i < 160 ? train_data : test_data;
    dst.images.push_back(all_data.images[i]);
    dst.labels.push_back(all_data.labels[i]);
  }

  FloatCnn model(config, 73);
  SgdOptions sgd;
  sgd.epochs = 40;
  sgd.batch_size = 16;
  sgd.learning_rate = 0.3;
  sgd.decay = 0.95;
  const TrainStats stats = train_sgd(model, train_data, sgd);
  std::printf("trained float CNN: loss %.3f, train acc %.1f%%, test acc %.1f%%\n",
              stats.final_loss, stats.train_accuracy * 100,
              model.accuracy(test_data.images, test_data.labels) * 100);

  const Network net = model.to_network(DType::kInt16, train_data.images);
  Dataset quant_test;
  quant_test.images = test_data.images;
  quant_test.labels = test_data.labels;
  quant_test.num_classes = config.classes;

  CampaignPoint clean;
  std::printf("quantized int16 test accuracy: %.1f%%\n",
              evaluate(net, quant_test, clean).accuracy * 100);

  const OpSpace ops = net.total_op_space(ConvPolicy::kDirect);
  std::printf("%12s %10s %10s\n", "BER", "ST acc", "WG acc");
  for (const double flips : {3.0, 10.0, 30.0, 100.0}) {
    const double ber = flips / static_cast<double>(ops.total_bits());
    CampaignPoint st;
    st.fault.ber = ber;
    st.seed = 77;
    CampaignPoint wg = st;
    wg.policy = ConvPolicy::kWinograd2;
    std::printf("%12.1e %9.1f%% %9.1f%%\n", ber,
                evaluate(net, quant_test, st).accuracy * 100,
                evaluate(net, quant_test, wg).accuracy * 100);
  }
  return 0;
}
