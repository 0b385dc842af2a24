// Fixture: a role identity that speaks twice — two publish() calls with the
// same (committee expression, label literal).
void round(Board& board, Committee& layer1) {
  board.publish(layer1, "mult-share", payload_a);
  board.publish(layer1, "open-share", payload_b);   // clean: different label
  board.publish(layer2, "mult-share", payload_c);   // clean: different committee
  board.publish(layer1, "mult-share", payload_d);   // fires: same (committee, label)
}

// The same through the round skeleton: a doubled post_round() call.
void rounds(Board& board, Committee& holder) {
  auto a = post_round(holder, phase, "pdec", board, 1, build, encode);
  auto b = post_round(holder, phase, "mask", board, 1, build, encode);  // clean: other label
  auto c = post_round(holder, phase, "pdec", board, 1, build, encode);  // fires: doubled round
}
