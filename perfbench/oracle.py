"""Plan oracle for MM-algorithm streaming plans, independent of the program.

The MM (Min-Mix) base tree of a ratio a1:...:aN with sum 2^d puts one leaf of
fluid i at depth d - j for every set bit j of a_i, and pairs nodes level by
level. Demand propagation through that tree (DESIGN.md section 2) gives every
pass of D droplets in closed form:

  input      I(D)   = sum over leaves of ceil(D / 2^depth)
  waste      W(D)   = I(D) - D
  mix-splits Tms(D) = sum over depths k of internal(k) * ceil(D / 2^(k+1))

where internal(k) is the number of mix nodes at depth k. A pass cannot finish
in fewer cycles than the tree height, nor faster than Mc mix-splits a cycle.
"""

from __future__ import annotations


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class MMTree:
    """Leaf and mix-node counts per depth of a ratio's MM base tree."""

    def __init__(self, ratio: str):
        parts = [int(p) for p in ratio.split(":")]
        total = sum(parts)
        if len(parts) < 2 or min(parts) < 1 or total & (total - 1):
            raise ValueError(f"not a valid ratio: {ratio}")
        d = total.bit_length() - 1
        # leaf_depths[i] lists the depths of fluid i's leaves.
        self.leaf_depths = [
            [d - j for j in range(d + 1) if part >> j & 1] for part in parts
        ]
        leaves = [0] * (d + 1)
        for depths in self.leaf_depths:
            for depth in depths:
                leaves[depth] += 1
        # Nodes at depth k + 1 pair up into the mix nodes at depth k.
        self.internal = [0] * (d + 1)
        for k in range(d - 1, -1, -1):
            nodes_below = leaves[k + 1] + self.internal[k + 1]
            if nodes_below % 2:
                raise ValueError(f"unpaired node at depth {k + 1}: {ratio}")
            self.internal[k] = nodes_below // 2
        self.height = max(max(depths) for depths in self.leaf_depths)

    def input_per_fluid(self, demand: int) -> list[int]:
        return [sum(_ceil_div(demand, 1 << depth) for depth in depths)
                for depths in self.leaf_depths]

    def input(self, demand: int) -> int:
        return sum(self.input_per_fluid(demand))

    def waste(self, demand: int) -> int:
        return self.input(demand) - demand

    def mix_splits(self, demand: int) -> int:
        return sum(count * _ceil_div(demand, 1 << (k + 1))
                   for k, count in enumerate(self.internal))


def _get(obj: dict, *names: str) -> int:
    for name in names:
        if name in obj:
            return obj[name]
    raise KeyError(names[0])


def check_plan(plan: dict, ratio: str, demand: int, cap: int) -> list[str]:
    """Returns every property the plan violates (empty when it is sound).

    Accepts both plan encodings the program emits: the streaming one
    (`storage`/`input`/`peakStorage`) and the fleet one
    (`storageUnits`/`inputDroplets`).
    """
    tree = MMTree(ratio)
    errors = []
    try:
        passes = plan["passes"]
        mixers = plan["mixers"]
        if not passes:
            return ["plan has no passes"]
        if mixers < 1:
            errors.append(f"mixers {mixers} < 1")
            mixers = 1
        total = {"demand": 0, "cycles": 0, "waste": 0, "input": 0}
        peak = 0
        for index, p in enumerate(passes):
            d = p["demand"]
            storage = _get(p, "storage", "storageUnits")
            inp = _get(p, "input", "inputDroplets")
            where = f"pass {index} (D'={d})"
            if d < 1:
                errors.append(f"{where}: demand < 1")
                continue
            if inp != tree.input(d):
                errors.append(f"{where}: input {inp} != I = {tree.input(d)}")
            if p["waste"] != inp - d:
                errors.append(f"{where}: waste {p['waste']} != I - D'")
            tms = tree.mix_splits(d)
            if p["mixSplits"] != tms:
                errors.append(f"{where}: mixSplits {p['mixSplits']} != {tms}")
            if storage > cap:
                errors.append(f"{where}: storage {storage} > cap {cap}")
            floor = max(tree.height, _ceil_div(tms, mixers))
            if p["cycles"] < floor:
                errors.append(f"{where}: cycles {p['cycles']} < {floor}")
            if index + 1 < len(passes) and d != plan["perPassDemand"]:
                errors.append(f"{where}: non-final pass != perPassDemand")
            total["demand"] += d
            total["cycles"] += p["cycles"]
            total["waste"] += p["waste"]
            total["input"] += inp
            peak = max(peak, storage)
        if total["demand"] != demand:
            errors.append(f"pass demands sum to {total['demand']} != {demand}")
        for key in ("cycles", "waste", "input"):
            field = "total" + key.capitalize()
            if plan[field] != total[key]:
                errors.append(f"{field} {plan[field]} != sum {total[key]}")
        if _get(plan, "peakStorage", "storageUnits") != peak:
            errors.append("peak storage != max pass storage")
    except (KeyError, TypeError) as exc:
        errors.append(f"malformed plan: missing {exc}")
    return errors
