from setuptools import find_packages, setup

setup(
    name="repro-xquery-pul",
    version="0.3.0",
    description=(
        "Reproduction of 'Dynamic Reasoning on XML Updates' "
        "(EDBT 2011): PUL reduction, aggregation, integration, and a "
        "resident multi-document update store with incremental "
        "relabeling"),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
