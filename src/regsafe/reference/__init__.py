"""The paper's definitions and the test-only routes that the tests and the
acceptance criteria (test_acceptance) check the runtime against.  No program
module outside this package imports it.  Each member and its users:

- abstraction: the counting abstraction, abstract_successors specifying
  the compiled letter step, its achievable_pairs read off
  pipeline.oracle.satisfying_pairs; test_abstraction.
- ara: models_at, used by tests only (test_abstraction, test_ara,
  test_compile); dual and dualize (test_ara, test_tree); inclusion_product
  (test_ara, test_compile, test_explore).
- ipcant: the dense Valuation, valuation, fire, fire_lazy,
  transfer_witnesses and sqsse, the token-embedding order as Hall's
  condition, for small valuations only (criterion 5, test_ipcant,
  test_compile, test_explore); bound_ceiling (test_ipcant);
  the random structures, valuations and instructions (criterion 5,
  test_ipcant, test_explore, test_formats).
- ltl: monitor_prefix (test_ltl); random_sentence (criterion 7, test_ara,
  test_ltl, test_formats).
"""
