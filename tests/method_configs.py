"""Config text for each [run] method, holding only the keys that method reads."""
import configparser

# the sections each method reads
READS = {"hypernoise": ("run", "generator", "reward", "train", "evaluation"),
         "direct_ft": ("run", "generator", "reward", "direct_ft", "evaluation"),
         "noise_opt": ("run", "generator", "reward", "noise_opt", "evaluation"),
         "best_of_n": ("run", "generator", "reward", "best_of_n", "evaluation"),
         "theory": ("run", "theory")}
# the keys not every reader of their section reads: a baseline reads
# heldout alone of [evaluation] (a direct_ft config also loads
# diversity_samples, unread) and generates in one step, without step_mix
KEY_READERS = {("evaluation", "fidelity_metric"): ("hypernoise",),
               ("evaluation", "multi_step"): ("hypernoise",),
               ("evaluation", "diversity_seeds"): ("hypernoise",),
               ("evaluation", "diversity_samples"): ("hypernoise", "direct_ft"),
               ("generator", "step_mix"): ("hypernoise",)}


def readers(section: str, key: str) -> tuple:
    """The methods that read `key` of `section`, in the order a scope message names them."""
    scope = KEY_READERS.get((section, key), READS)
    return tuple(m for m, read in READS.items() if section in read and m in scope)


def as_method(text: str, method: str, **sections: str) -> str:
    """`text`, a config of any method, as a `method` config: its [run] with
    that method, the keys of `sections` (section -> "key = value" lines)
    over its own, and of the result only the keys `method` reads."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    parser.read_dict({"run": {"method": method}})
    for name, lines in sections.items():
        parser.read_string(f"[{name}]\n{lines}\n")   # adds to a section it has
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in parser[name].items()
                                if method in readers(name, key))
        for name in READS[method] if parser.has_section(name))
