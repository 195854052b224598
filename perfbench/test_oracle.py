"""Tests of the plan oracle: python3 perfbench/test_oracle.py"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import MMTree, check_plan  # noqa: E402

PCR = "2:1:1:1:1:1:9"

# `dmfstream stream --ratio 2:1:1:1:1:1:9 --demand 20 --storage 4 --json`
STREAM_PLAN = {
    "perPassDemand": 18, "totalCycles": 13, "totalWaste": 12,
    "totalInput": 32, "peakStorage": 4, "mixers": 3,
    "passes": [
        {"demand": 18, "cycles": 9, "storage": 4, "waste": 6, "input": 24,
         "mixSplits": 26},
        {"demand": 2, "cycles": 4, "storage": 0, "waste": 6, "input": 8,
         "mixSplits": 7},
    ],
}

# One user's plan as `dmfstream fleet --json` encodes it (demand 24, cap 3).
FLEET_PLAN = {
    "perPassDemand": 14,
    "passes": [
        {"demand": 14, "cycles": 6, "storageUnits": 3, "waste": 1,
         "inputDroplets": 15, "mixSplits": 18},
        {"demand": 10, "cycles": 5, "storageUnits": 2, "waste": 3,
         "inputDroplets": 13, "mixSplits": 15},
    ],
    "totalCycles": 11, "totalWaste": 4, "totalInput": 28,
    "storageUnits": 3, "mixers": 3,
}


class MMTreeTest(unittest.TestCase):
    def test_fig1_demand_16(self):
        tree = MMTree(PCR)
        self.assertEqual(tree.input(16), 16)
        self.assertEqual(tree.mix_splits(16), 19)
        self.assertEqual(tree.waste(16), 0)
        self.assertEqual(tree.input_per_fluid(16), [2, 1, 1, 1, 1, 1, 9])

    def test_fig2_demand_20(self):
        tree = MMTree(PCR)
        self.assertEqual(tree.input(20), 25)
        self.assertEqual(tree.waste(20), 5)
        self.assertEqual(tree.mix_splits(20), 27)
        self.assertEqual(tree.input_per_fluid(20), [3, 2, 2, 2, 2, 2, 12])

    def test_base_tree(self):
        tree = MMTree(PCR)
        self.assertEqual(tree.height, 4)
        self.assertEqual(tree.internal, [1, 1, 2, 3, 0])
        # Leaf count is the sum of popcounts (Ex.1 of Table 2: 17 leaves).
        ex1 = MMTree("26:21:2:2:3:3:199")
        self.assertEqual(sum(len(d) for d in ex1.leaf_depths), 17)

    def test_alias_has_same_tree_shape(self):
        tree, alias = MMTree(PCR), MMTree("4:2:2:2:2:2:18")
        for demand in (1, 7, 20, 64):
            self.assertEqual(tree.input(demand), alias.input(demand))
            self.assertEqual(tree.mix_splits(demand), alias.mix_splits(demand))
        self.assertEqual(tree.height, alias.height)

    def test_rejects_bad_ratio(self):
        with self.assertRaises(ValueError):
            MMTree("3:4")


class CheckPlanTest(unittest.TestCase):
    def test_program_plans_pass(self):
        self.assertEqual(check_plan(STREAM_PLAN, PCR, 20, 4), [])
        self.assertEqual(check_plan(FLEET_PLAN, PCR, 24, 3), [])

    def test_altered_input_count_fails(self):
        plan = copy.deepcopy(STREAM_PLAN)
        plan["passes"][0]["input"] += 1
        plan["totalInput"] += 1
        errors = check_plan(plan, PCR, 20, 4)
        self.assertTrue(any("input 25 != I = 24" in e for e in errors), errors)

    def test_other_violations_fail(self):
        cases = {
            "demands sum": (lambda p: None, 21, 4),
            "storage 4 > cap 3": (lambda p: None, 20, 3),
            "cycles 3 < 4": (lambda p: p["passes"][1].update(cycles=3), 20, 4),
            "mixSplits": (lambda p: p["passes"][1].update(mixSplits=8), 20, 4),
            "totalCycles": (lambda p: p.update(totalCycles=14), 20, 4),
            "malformed": (lambda p: p["passes"][0].pop("waste"), 20, 4),
        }
        for needle, (alter, demand, cap) in cases.items():
            plan = copy.deepcopy(STREAM_PLAN)
            alter(plan)
            errors = check_plan(plan, PCR, demand, cap)
            self.assertTrue(any(needle in e for e in errors), (needle, errors))


if __name__ == "__main__":
    unittest.main()
